"""Synthetic labeled data: quasi-random design sampling, an analytic forward
model, train/val/test splits, and CSV persistence.

Designs are five geometric parameters (p, w, h1, h2, h3, all nm) drawn from a
randomized Sobol sequence over fixed intervals, subject to the fabrication
constraint p - w >= 200 nm.  The forward model maps a design to a 101-sample
absorbance spectrum on the 400-700 nm grid via three Gaussian resonances whose
centers involve sin and fractional-part terms, so distinct designs can give
similar spectra; only the clip to [0, 1] makes two equal (see peak_parameters).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nncore import DatasetFormatError, read_csv, write_csv

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
_SOBOL_BITS = 30
# Joe and Kuo's (2008) primitive polynomial and initial direction numbers of dimensions 2 to 5
_SOBOL_INITIAL = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)))


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


def _sobol_blocks(seed: int, size: int):
    """Consecutive blocks of ``size`` points of scipy's ``qmc.Sobol(d=5, seed=seed)``, bit for
    bit: Joe and Kuo's direction numbers with Matousek's (1998) LMS+shift scrambling, drawn from
    ``default_rng(seed)`` in scipy's order, and the points in Gray-code order from the shift."""
    bit = np.arange(_SOBOL_BITS)
    v = np.ones((N_DIMS, _SOBOL_BITS), dtype=np.int64)
    for d, (poly, initial) in enumerate(_SOBOL_INITIAL, start=1):
        m = len(initial)
        v[d, :m] = initial
        for j in range(m, _SOBOL_BITS):
            v[d, j] = v[d, j - m]
            for k in range(m):
                v[d, j] ^= (poly >> (m - 1 - k) & 1) * v[d, j - k - 1] << (k + 1)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(N_DIMS, _SOBOL_BITS), dtype=np.uint32) @ (1 << bit)
    lower = np.tril(rng.integers(2, size=(N_DIMS, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    lower[:, bit, bit] = 1
    # bits most significant first, the first direction number's on top; scramble over GF(2)
    msb = _SOBOL_BITS - 1 - bit
    v_bits = (v << msb)[..., None] >> msb & 1
    directions = (np.einsum("dpm,djm->djp", lower, v_bits) % 2) @ (1 << msb)
    for start in itertools.count(0, size):
        i = np.arange(start, start + size)[:, None]
        points = np.tile(shift, (size, 1))
        for k in bit:  # XOR in direction k where bit k of the point's Gray code is set
            points ^= ((i ^ i >> 1) >> k & 1) * directions[:, k]
        yield points * 2.0 ** -_SOBOL_BITS


def generate_designs(n: int, seed: int) -> list[DesignParams]:
    """Valid designs from one randomized Sobol stream, drawn until n survive the filter."""
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks: list[np.ndarray] = []
    for points in _sobol_blocks(seed, _SOBOL_BLOCK):
        blocks.append(scale_and_filter(points))
        if sum(map(len, blocks)) >= n:
            return [DesignParams(*row) for row in np.concatenate(blocks)[:n].tolist()]


# --- forward model ----------------------------------------------------------------


def peak_parameters(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers, widths, amplitudes of the three resonances for normalized designs.

    u is (n, 5) in [0,1].  Returns three (n, 3) arrays.  The swap u4 <-> 0.5 - u4
    (1.5 - u4 above 0.5) keeps the sin-term second center but moves the third
    amplitude 0.35 + 0.4 u4, so the two spectra differ (by up to 0.2) unless the
    clip to [0, 1] hides it, as the tests' witness pair arranges.  The wrap of the
    third center is not exact either: u2 and u3 also set the first peak.  ROADMAP
    item 11 proposes a surrogate with the exact symmetry.
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

_SPLITS = ("train", "val", "test")
MIN_RECORDS = 10  # the fewest that give every split a row


def split_counts(n: int) -> tuple[int, int, int]:
    """80/10/10 with floor/floor/remainder rounding."""
    n_train = int(math.floor(0.8 * n))
    n_val = int(math.floor(0.1 * n))
    return n_train, n_val, n - n_train - n_val


def assign_splits(n: int, seed: int) -> np.ndarray:
    """Shuffled per-record split tags; deterministic per seed."""
    if n < MIN_RECORDS:
        raise ValueError(f"need at least {MIN_RECORDS} records to split, got {n}")
    tags = np.repeat(np.array(_SPLITS, dtype=object), split_counts(n))
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

    def counts(self) -> dict[str, int]:
        return {s: int(np.sum(self.split_tags == s)) for s in _SPLITS}


def generate_dataset(n: int, seed: int) -> LabeledDataset:
    """End to end: Sobol designs -> spectra -> shuffled 80/10/10 split."""
    designs = np.array([d.to_array() for d in generate_designs(n, seed=seed)])
    return LabeledDataset(designs, surrogate_spectra(designs), assign_splits(n, seed))


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
    """A dataset CSV read through ``read_csv`` and revalidated: an unknown split tag, a
    design that breaks the design rule or absorbance outside [0, 1] is a
    ``DatasetFormatError`` naming the first such record by the line it starts on."""
    table, starts = read_csv(path, DATASET_COLUMNS)
    # one record per C-order row: BLAS results, and so trained bits, may depend on layout
    designs = np.stack([np.frombuffer(table[name]) for name in PARAM_NAMES], axis=1)
    spectra = np.stack([np.frombuffer(table[name]) for name in ABSORBANCE_COLUMNS], axis=1)
    tags = np.array(table["split"], dtype=object)
    faults = design_faults(designs)
    faults[~valid_absorbance(spectra)] = "absorbance values must be finite and within [0, 1]"
    for i in np.flatnonzero(~np.isin(tags, _SPLITS)):
        faults[i] = f"unknown split {tags[i]!r}"
    bad = np.flatnonzero(faults != "")
    if bad.size:
        raise DatasetFormatError(f"{path}: line {starts[bad[0]]}: {faults[bad[0]]}")
    return LabeledDataset(designs=designs, spectra=spectra, split_tags=tags)
