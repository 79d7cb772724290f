"""Synthetic labeled data: quasi-random design sampling, an analytic forward
model, train/val/test splits, and CSV persistence.

Designs are five geometric parameters (p, w, h1, h2, h3, all nm) drawn from a
randomized Sobol sequence over fixed intervals, subject to the fabrication
constraint p - w >= 200 nm.  The forward model maps a design to a 101-sample
absorbance spectrum on the 400-700 nm grid via three Gaussian resonances whose
centers involve sin and fractional-part terms, so distinct designs can produce
near-identical spectra (a deliberately multi-valued inverse problem).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nncore import DatasetFormatError, read_text, write_csv

PARAM_NAMES = ("p", "w", "h1", "h2", "h3")
PARAM_LOWER = np.array([305.0, 45.0, 150.0, 25.0, 80.0])
PARAM_UPPER = np.array([415.0, 190.0, 295.0, 200.0, 165.0])
MIN_PERIOD_WIDTH_GAP = 200.0  # p - w >= this, spacing between unit cells

N_WAVELENGTHS = 101
WAVELENGTHS = 400.0 + 3.0 * np.arange(N_WAVELENGTHS)  # 400..700 nm inclusive

N_DIMS = 5
DEFAULT_SAMPLE_COUNT = 3848
SURROGATE_VERSION = "three-peak-1"

_SOBOL_BLOCK = 1024  # fixed draw size keeps rejection sampling reproducible


@dataclass(frozen=True)
class DesignParams:
    """One absorber geometry in nm; validated by ``design_faults``."""

    p: float
    w: float
    h1: float
    h2: float
    h3: float

    def __post_init__(self):
        fault = design_faults(self.to_array())[0]
        if fault:
            raise ValueError(fault)

    def to_array(self) -> np.ndarray:
        return np.array([self.p, self.w, self.h1, self.h2, self.h3])

    @classmethod
    def from_array(cls, arr) -> "DesignParams":
        p, w, h1, h2, h3 = (float(v) for v in arr)
        return cls(p, w, h1, h2, h3)


def normalize_designs(designs: np.ndarray) -> np.ndarray:
    """Min-max scale physical designs to [0,1]^5 using the interval bounds."""
    return (np.asarray(designs, dtype=np.float64) - PARAM_LOWER) / (PARAM_UPPER - PARAM_LOWER)


def denormalize_designs(u: np.ndarray) -> np.ndarray:
    return PARAM_LOWER + np.asarray(u, dtype=np.float64) * (PARAM_UPPER - PARAM_LOWER)


def _inside_intervals(d: np.ndarray) -> np.ndarray:
    """Per row of (n, 5): every value within its sampling interval."""
    # NaN fails every comparison, so require inside rather than reject outside
    return ((d >= PARAM_LOWER) & (d <= PARAM_UPPER)).all(axis=1)


def design_faults(designs: np.ndarray) -> np.ndarray:
    """Per physical design (rows of (n, 5)): why it breaks the design rule, '' if it holds."""
    d = np.array(designs, dtype=np.float64, ndmin=2, copy=None)
    inside = _inside_intervals(d)
    gap = d[:, 0] - d[:, 1]
    faults = np.full(len(d), "", dtype=object)
    for i in (~(inside & (gap >= MIN_PERIOD_WIDTH_GAP))).nonzero()[0]:
        faults[i] = (f"p - w = {gap[i]:.6g} violates the {MIN_PERIOD_WIDTH_GAP} nm gap" if inside[i]
                     else f"design {d[i]} is non-finite or outside the parameter intervals")
    return faults


# --- sampling -------------------------------------------------------------------


def scale_and_filter(points: np.ndarray) -> np.ndarray:
    """Scale unit-cube points to physical designs and keep the rows that hold the design rule."""
    scaled = denormalize_designs(points)
    return scaled[design_faults(scaled) == ""]


def generate_designs(n: int, seed: int) -> list[DesignParams]:
    """Valid designs from one randomized Sobol stream, drawn until n survive the filter."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # scipy.stats takes longer to import than most commands take to run; only sampling needs it
    from scipy.stats import qmc

    engine = qmc.Sobol(d=N_DIMS, seed=seed)
    blocks: list[np.ndarray] = []
    kept = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while kept < n:
            blocks.append(scale_and_filter(engine.random(_SOBOL_BLOCK)))
            kept += len(blocks[-1])
    return [DesignParams.from_array(row) for row in np.concatenate(blocks)[:n]]


# --- forward model ----------------------------------------------------------------


def peak_parameters(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers, widths, amplitudes of the three resonances for normalized designs.

    u is (n, 5) in [0,1].  Returns three (n, 3) arrays.  The sin term makes the
    second center symmetric about u4 = 0.25, and the fractional-part term wraps
    the third center, so the design -> spectrum map is non-injective.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    u1, u2, u3, u4, u5 = (u[:, i] for i in range(5))
    centers = np.stack(
        [
            430.0 + 240.0 * u1,
            550.0 + 90.0 * np.sin(2.0 * np.pi * u4),
            400.0 + 300.0 * np.mod(u2 + u3, 1.0),
        ],
        axis=1,
    )
    widths = np.stack(
        [12.0 + 28.0 * u3, 15.0 + 25.0 * u5, 20.0 + 20.0 * u1], axis=1
    )
    amps = np.stack(
        [0.55 + 0.45 * u2, 0.45 + 0.5 * u5, 0.35 + 0.4 * u4], axis=1
    )
    return centers, widths, amps


def surrogate_spectra(designs: np.ndarray) -> np.ndarray:
    """Absorbance spectra, (n, 101) in [0,1], for physical designs (n, 5)."""
    designs = np.atleast_2d(np.asarray(designs, dtype=np.float64))
    if not _inside_intervals(designs).all():
        raise ValueError("design is non-finite or outside the parameter intervals")
    centers, widths, amps = peak_parameters(normalize_designs(designs))
    z = (WAVELENGTHS[None, None, :] - centers[:, :, None]) / widths[:, :, None]
    total = (amps[:, :, None] * np.exp(-z * z)).sum(axis=1)
    return np.clip(total, 0.0, 1.0)


def valid_absorbance(spectra: np.ndarray) -> np.ndarray:
    """Per spectrum: every value finite and within [0, 1] (NaN fails both bounds)."""
    return ((spectra >= 0.0) & (spectra <= 1.0)).all(axis=-1)


# --- splits and the labeled dataset ------------------------------------------------

SPLIT_TRAIN = "train"
SPLIT_VAL = "val"
SPLIT_TEST = "test"
_SPLITS = (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST)


def split_counts(n: int) -> tuple[int, int, int]:
    """80/10/10 with floor/floor/remainder rounding."""
    n_train = int(math.floor(0.8 * n))
    n_val = int(math.floor(0.1 * n))
    return n_train, n_val, n - n_train - n_val


def assign_splits(n: int, seed: int) -> np.ndarray:
    """Shuffled per-record split tags; deterministic per seed."""
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    n_train, n_val, n_test = split_counts(n)
    tags = np.array(
        [SPLIT_TRAIN] * n_train + [SPLIT_VAL] * n_val + [SPLIT_TEST] * n_test, dtype=object
    )
    perm = np.random.default_rng(seed).permutation(n)
    out = np.empty(n, dtype=object)
    out[perm] = tags
    return out


@dataclass
class LabeledDataset:
    """Paired (design, spectrum) records with split tags."""

    designs: np.ndarray  # (n, 5) physical nm
    spectra: np.ndarray  # (n, 101) absorbance
    split_tags: np.ndarray  # (n,) of train|val|test

    def __len__(self) -> int:
        return self.designs.shape[0]

    def indices(self, split: str) -> np.ndarray:
        if split not in _SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return np.flatnonzero(self.split_tags == split)

    def spectra_for(self, split: str) -> np.ndarray:
        return self.spectra[self.indices(split)]

    def counts(self) -> dict[str, int]:
        return {s: int(np.sum(self.split_tags == s)) for s in _SPLITS}


def build_dataset(designs: list[DesignParams], seed: int) -> LabeledDataset:
    arr = np.array([d.to_array() for d in designs])
    return LabeledDataset(
        designs=arr,
        spectra=surrogate_spectra(arr),
        split_tags=assign_splits(len(designs), seed),
    )


def generate_dataset(n: int, seed: int) -> LabeledDataset:
    """End to end: Sobol designs -> spectra -> shuffled 80/10/10 split."""
    return build_dataset(generate_designs(n, seed=seed), seed=seed)


# --- persistence --------------------------------------------------------------------


ABSORBANCE_COLUMNS = dict.fromkeys((f"a_{i:03d}" for i in range(N_WAVELENGTHS)), float)
DATASET_COLUMNS = {**dict.fromkeys(PARAM_NAMES, float), "split": str, **ABSORBANCE_COLUMNS}


def save_dataset(path: str | Path, ds: LabeledDataset, seed: int | None = None) -> None:
    """Write the dataset CSV and a sidecar JSON metadata file alongside it."""
    path = Path(path)
    rows = zip(ds.designs.tolist(), ds.split_tags, ds.spectra.tolist())
    write_csv(path, DATASET_COLUMNS, ((*d, tag, *a) for d, tag, a in rows))
    meta = {
        "seed": seed,
        "samples": len(ds),
        "surrogate_version": SURROGATE_VERSION,
        "split_counts": ds.counts(),
        "wavelength_nm": {"start": 400.0, "stop": 700.0, "samples": N_WAVELENGTHS},
    }
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read and revalidate a dataset CSV; errors point at the offending line."""
    path = Path(path)
    designs, spectra, tags = [], [], []
    expected_cols = len(DATASET_COLUMNS)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DatasetFormatError(f"{path}: empty file")
        if header != list(DATASET_COLUMNS):
            raise DatasetFormatError(
                f"{path}: line 1: unexpected header (expected {expected_cols} columns "
                f"p,w,h1,h2,h3,split,a_000..a_{N_WAVELENGTHS - 1:03d})"
            )
        lineno = reader.line_num  # the line the last record read ends on
        starts = []  # the line each record starts on: a quoted cell may span lines
        for row in reader:
            starts.append(lineno + 1)
            lineno = reader.line_num
            if len(row) != expected_cols:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {expected_cols} columns, got {len(row)}"
                )
            try:
                design = [float(v) for v in row[:5]]
                spectrum = [float(v) for v in row[6:]]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
            split = row[5]
            if split not in _SPLITS:
                raise DatasetFormatError(f"{path}: line {lineno}: unknown split {split!r}")
            designs.append(design)
            spectra.append(spectrum)
            tags.append(split)
    except csv.Error as exc:  # a field over the csv module's size limit, say
        raise DatasetFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not designs:
        raise DatasetFormatError(f"{path}: no records")
    designs, spectra = np.array(designs), np.array(spectra)
    faults = design_faults(designs)
    faults[~valid_absorbance(spectra)] = "absorbance values must be finite and within [0, 1]"
    bad = np.flatnonzero(faults != "")
    if bad.size:
        raise DatasetFormatError(f"{path}: line {starts[bad[0]]}: {faults[bad[0]]}")
    return LabeledDataset(
        designs=designs,
        spectra=spectra,
        split_tags=np.array(tags, dtype=object),
    )
