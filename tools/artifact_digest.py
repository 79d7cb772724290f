"""Hash the artifacts of a fixed-seed set of specinv commands.

    python tools/artifact_digest.py --src SRC_DIR --out OUT_DIR

``SRC_DIR`` is the directory that holds the ``specinv`` package (``src`` of a
checkout).  Every command runs in a fresh process with one BLAS thread, inside
``OUT_DIR`` and with relative paths, so the recorded ``config.txt`` files do not
depend on where ``OUT_DIR`` is.  The tool prints one ``sha256  path`` line per
file, the standard output of each command included, and then the sha256 of that
listing.  ``sweep_timing.csv`` holds wall-clock seconds and is left out.

Last it prints a weights digest: the sha256 over every checkpoint's parameter
arrays (shape and float64 bytes), decoded in a fresh process by the package's
own ``load_mdn`` or ``load_ae``.  It does not depend on how a checkpoint encodes
its floats, so a change of file format alone keeps it.

Run it once on two checkouts and compare the listings: a change that keeps
every artifact byte-identical prints the same combined digest, and one that
keeps every trained weight prints the same weights digest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

EXCLUDED = {"sweep_timing.csv"}
TRAIN = ["--max-epochs", "6", "--batch-size", "32"]

COMMANDS = [
    ("gen_data", ["gen-data", "--samples", "200", "--seed", "3", "--out", "data.csv"]),
    ("sweep_tl1_ae", ["sweep", "--dataset", "data.csv", "--strategy", "tl1", "--autoencoder",
                      "--k-max", "3", "--seed", "4", "--out", "sweep_tl1_ae", *TRAIN]),
    ("sweep_tl2", ["sweep", "--dataset", "data.csv", "--strategy", "tl2", "--k-max", "3",
                   "--seed", "5", "--out", "sweep_tl2", *TRAIN]),
    ("sweep_none", ["sweep", "--dataset", "data.csv", "--strategy", "none", "--k-max", "3",
                    "--seed", "5", "--out", "sweep_none", *TRAIN]),
    ("train", ["train", "--dataset", "data.csv", "--k", "2", "--max-epochs", "7",
               "--batch-size", "32", "--seed", "6", "--out", "train_k2"]),
    ("predict_raw", ["predict", "--checkpoint", "sweep_tl2/mdn_k03.json",
                     "--spectrum-file", "spectrum.txt", "--top", "3", "--out", "predict_raw"]),
    ("predict_latent", ["predict", "--checkpoint", "sweep_tl1_ae/mdn_k03.json",
                        "--spectrum-file", "spectrum.txt", "--top", "2", "--out", "predict_latent"]),
    ("report", ["report", "--run-dir", "sweep_tl2", "--dataset", "data.csv"]),
    ("report_ae", ["report", "--run-dir", "sweep_tl1_ae", "--dataset", "data.csv"]),
]


def write_query_spectrum(out: Path) -> None:
    """The absorbance columns of the dataset's first record, one value per line."""
    with open(out / "data.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        row = next(reader)
    values = [v for name, v in zip(header, row) if name.startswith("a_")]
    (out / "spectrum.txt").write_text("\n".join(values) + "\n", encoding="utf-8")


def run_commands(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, args in COMMANDS:
        if name == "predict_raw":
            write_query_spectrum(out)
        proc = subprocess.run([sys.executable, "-m", "specinv.cli", *args], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}:\n{proc.stderr}")
        (out / f"{name}.stdout").write_text(proc.stdout, encoding="utf-8")


# run in the checkout's own package: one line per checkpoint, the sha256 of its weights
WEIGHTS_SCRIPT = """
import hashlib, sys
import numpy as np
from specinv import autoencoder, mdn
for rel in sys.argv[1:]:
    model = (autoencoder.load_ae if rel.endswith("/ae.json") else mdn.load_mdn)(rel)
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p, "<f8").tobytes())
    print(h.hexdigest() + "  " + rel)
"""


def weights_digest(src: Path, out: Path) -> tuple[str, int]:
    """The sha256 of the per-checkpoint weight hashes, and the checkpoint count."""
    paths = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.json")
                   if p.name == "ae.json" or p.name.startswith("mdn_k"))
    proc = subprocess.run([sys.executable, "-c", WEIGHTS_SCRIPT, *paths], cwd=out,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"loading the checkpoints exited {proc.returncode}:\n{proc.stderr}")
    return hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest(), len(paths)


def digest_listing(out: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name not in EXCLUDED:
            rel = path.relative_to(out).as_posix()
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the specinv package")
    parser.add_argument("--out", required=True, help="new or empty directory for the artifacts")
    args = parser.parse_args(argv)
    src, out = Path(args.src).resolve(), Path(args.out).resolve()
    if not (src / "specinv" / "cli.py").is_file():
        parser.error(f"no specinv package under {src}")
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    run_commands(src, out)
    lines = digest_listing(out)
    print("\n".join(lines))
    combined = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
    print(f"{combined}  ({len(lines)} files)")
    weights, count = weights_digest(src, out)
    print(f"{weights}  (weights of {count} checkpoints)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
