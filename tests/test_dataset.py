"""Sampling, the analytic forward model, splits, and persistence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from specinv import dataset
from specinv.dataset import (
    DatasetFormatError,
    DesignParams,
    PARAM_UPPER,
    assign_splits,
    build_dataset,
    denormalize_designs,
    generate_designs,
    generate_dataset,
    load_dataset,
    normalize_designs,
    peak_parameters,
    save_dataset,
    scale_and_filter,
    split_counts,
    surrogate_spectra,
)
from specinv.train import arrays_from_dataset
from util import load_metadata, witness_pair


class TestScaleAndFilter:
    def test_origin_maps_to_lower_bounds_and_is_kept(self):
        designs = scale_and_filter(np.zeros((1, 5)))
        np.testing.assert_array_equal(designs, [[305.0, 45.0, 150.0, 25.0, 80.0]])

    def test_narrow_period_wide_cell_rejected(self):
        # p = 305, w = 190 -> gap 115 < 200
        u = np.array([[0.0, 1.0, 0.5, 0.5, 0.5]])
        assert scale_and_filter(u).shape == (0, 5)

    def test_wide_period_wide_cell_kept(self):
        # p = 415, w = 190 -> gap 225
        u = np.array([[1.0, 1.0, 0.5, 0.5, 0.5]])
        designs = scale_and_filter(u)
        assert designs.shape == (1, 5)
        assert designs[0, 0] - designs[0, 1] == pytest.approx(225.0)

    def test_generate_designs_reaches_requested_count(self):
        designs = generate_designs(97, seed=2)
        assert len(designs) == 97
        for d in designs:
            assert d.p - d.w >= dataset.MIN_PERIOD_WIDTH_GAP

    def test_generate_designs_deterministic(self):
        a = generate_designs(40, seed=9)
        b = generate_designs(40, seed=9)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.to_array(), db.to_array())

    def test_prefix_across_block_boundaries(self):
        """At seed 3, 700 designs come from one 1,024-point Sobol block and 1,600 from
        three; the surplus of the last block is dropped, so the shorter is a prefix."""
        short, long = generate_designs(700, seed=3), generate_designs(1600, seed=3)
        assert len(long) == 1600
        assert short == long[:700]


class TestSobolSampler:
    """scipy's ``qmc.Sobol`` is the oracle: the sampler draws its points bit for bit."""

    @settings(max_examples=24, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64))
    @example(seed=0)
    @example(seed=3)
    def test_consecutive_blocks_match_scipy(self, seed):
        engine = qmc.Sobol(d=dataset.N_DIMS, seed=seed)
        blocks = dataset._sobol_blocks(seed, dataset._SOBOL_BLOCK)
        for _ in range(8):
            np.testing.assert_array_equal(next(blocks), engine.random(dataset._SOBOL_BLOCK))

    def test_one_long_draw_matches_scipy(self):
        """2**16 points reach the sixteenth direction number of every dimension."""
        np.testing.assert_array_equal(next(dataset._sobol_blocks(21, 2**16)),
                                      qmc.Sobol(d=dataset.N_DIMS, seed=21).random(2**16))


class TestDesignParams:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="intervals"):
            DesignParams(300.0, 45.0, 200.0, 100.0, 100.0)

    def test_gap_validated(self):
        with pytest.raises(ValueError, match="gap"):
            DesignParams(310.0, 150.0, 200.0, 100.0, 100.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            DesignParams(math.nan, 45.0, 200.0, 100.0, 100.0)

    def test_design_faults_per_row(self):
        faults = dataset.design_faults(np.array([
            [400.0, 100.0, 200.0, 100.0, 100.0],
            [300.0, 45.0, 200.0, 100.0, 100.0],
            [310.0, 150.0, 200.0, 100.0, 100.0],
            [400.0, math.nan, 200.0, 100.0, 100.0],
        ]))
        assert faults[0] == ""
        assert "intervals" in faults[1]
        assert faults[2] == "p - w = 160 violates the 200.0 nm gap"
        assert "non-finite" in faults[3]

    def test_normalization_round_trip(self):
        rng = np.random.default_rng(4)
        u = rng.random((200, 5))
        back = normalize_designs(denormalize_designs(u))
        assert np.max(np.abs(back - u)) <= 1e-12


class TestSurrogate:
    def test_shape_and_range(self):
        designs = generate_designs(50, seed=1)
        spectra = surrogate_spectra(np.array([d.to_array() for d in designs]))
        assert spectra.shape == (50, 101)
        assert np.all(spectra >= 0.0) and np.all(spectra <= 1.0)

    def test_pure_function(self):
        d = generate_designs(1, seed=8)[0]
        np.testing.assert_array_equal(surrogate_spectra(d.to_array()[None])[0],
                                      surrogate_spectra(d.to_array()[None])[0])

    def test_sin_symmetry_of_second_center(self):
        u = np.array([0.3, 0.4, 0.2, 0.1, 0.6])
        mirrored = u.copy()
        mirrored[3] = 0.5 - u[3]
        c_a, _, _ = peak_parameters(u[None, :])
        c_b, _, _ = peak_parameters(mirrored[None, :])
        assert c_a[0, 1] == pytest.approx(c_b[0, 1], abs=1e-9)

    def test_spot_value_at_isolated_first_peak(self):
        """With the other resonances far away, A(center_1) is amplitude_1."""
        u = np.array([0.0, 0.1, 0.8, 0.0, 0.1])
        # direct evaluation of the stated construction
        center_1 = 430.0 + 240.0 * u[0]
        amplitude_1 = 0.55 + 0.45 * u[1]
        d = DesignParams.from_array(denormalize_designs(u))
        spectrum = surrogate_spectra(d.to_array()[None])[0]
        i = int(round((center_1 - 400.0) / 3.0))
        assert abs(spectrum[i] - amplitude_1) <= 0.02

    def test_out_of_bounds_rejected(self):
        bad = PARAM_UPPER + 1.0
        with pytest.raises(ValueError, match="intervals"):
            surrogate_spectra(bad[None, :])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_design_rejected(self, value):
        """NaN fails both interval comparisons, so it must not pass as inside."""
        design = np.array([[400.0, 100.0, 200.0, 100.0, 100.0]])
        for column in range(5):
            bad = design.copy()
            bad[0, column] = value
            with pytest.raises(ValueError, match="non-finite or outside the parameter intervals"):
                surrogate_spectra(bad)

    def test_witness_pair_is_multi_valued(self):
        """Far-apart designs, nearly identical spectra."""
        a, b = witness_pair()
        ua, ub = normalize_designs(np.array([a.to_array(), b.to_array()]))
        assert np.linalg.norm(ua - ub) >= 0.2
        sa, sb = (surrogate_spectra(d.to_array()[None])[0] for d in (a, b))
        rmse = math.sqrt(float(np.mean((sa - sb) ** 2)))
        assert rmse <= 0.01


class TestSplits:
    def test_counts_small(self):
        assert split_counts(10) == (8, 1, 1)

    def test_counts_full_scale(self):
        assert split_counts(3848) == (3078, 384, 386)

    def test_assign_splits_counts_and_determinism(self):
        tags = assign_splits(3848, seed=0)
        assert int(np.sum(tags == "train")) == 3078
        assert int(np.sum(tags == "val")) == 384
        assert int(np.sum(tags == "test")) == 386
        np.testing.assert_array_equal(tags, assign_splits(3848, seed=0))

    def test_too_few_records(self):
        with pytest.raises(ValueError, match="10"):
            assign_splits(9, seed=0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = build_dataset(generate_designs(100, seed=3), seed=3)
        path = tmp_path / "data.csv"
        save_dataset(path, ds, seed=3)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.designs, ds.designs)
        np.testing.assert_array_equal(loaded.spectra, ds.spectra)
        np.testing.assert_array_equal(loaded.split_tags, ds.split_tags)

    def test_metadata_sidecar(self, tmp_path):
        ds = generate_dataset(20, seed=6)
        path = tmp_path / "data.csv"
        save_dataset(path, ds, seed=6)
        meta = load_metadata(path)
        assert meta["seed"] == 6
        assert meta["samples"] == 20
        assert meta["surrogate_version"] == dataset.SURROGATE_VERSION
        assert meta["split_counts"] == {"train": 16, "val": 2, "test": 2}

    def test_wrong_column_count_reports_line(self, tmp_path):
        ds = build_dataset(generate_designs(12, seed=1), seed=1)
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])  # drop one spectrum column
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        header = ",".join(["p", "w", "h1", "h2", "h3", "split"] + [f"a_{i:03d}" for i in range(100)])
        path.write_text(header + "\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path)

    def test_bad_split_tag_reports_line(self, tmp_path):
        ds = build_dataset(generate_designs(12, seed=1), seed=1)
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[5] = "holdout"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_constraint_revalidated_on_load(self, tmp_path):
        ds = build_dataset(generate_designs(12, seed=1), seed=1)
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[0], cells[1] = "310.0", "150.0"  # gap 160 < 200
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 5"):
            load_dataset(path)

    @pytest.mark.parametrize("column", [2, 10])  # a design field, an absorbance value
    def test_nan_reports_line(self, tmp_path, column):
        ds = build_dataset(generate_designs(12, seed=1), seed=1)
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[6].split(",")
        cells[column] = "nan"
        lines[6] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 7"):
            load_dataset(path)

    @pytest.mark.parametrize("record,cells,message", [
        (3, {8: "oops"}, "line 6: cannot read a_002 from 'oops'"),
        (3, {0: "310.0", 1: "150.0"}, "line 6: p - w = 160 violates"),
        (0, {10: "1.5"}, "line 2: absorbance values must be finite and within [0, 1]"),
        (0, {8: "oops"}, "line 2: cannot read a_002 from 'oops'"),
        (0, {5: "holdout"}, "line 2: unknown split 'holdout'"),
        (0, {1: "999"}, "line 2: design ["),
        (0, {106: None}, "line 2: expected 107 columns, got 106"),
    ], ids=["bad_cell_after", "design_fault_after", "fault_of_the_two_line_record",
            "bad_number_in_the_two_line_record", "unknown_split_in_the_two_line_record",
            "design_fault_in_the_two_line_record", "short_two_line_record"])
    def test_lines_counted_past_a_cell_that_spans_two_lines(self, record, cells, message,
                                                            tmp_path):
        """The first record's p cell is quoted with a line break in it: that record takes
        lines 2-3, and each fault is named by the line its record starts on.  A cell given as
        None is dropped."""
        path = tmp_path / "data.csv"
        save_dataset(path, build_dataset(generate_designs(12, seed=1), seed=1))
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        rows[0][0] = f'"{rows[0][0]}\n"'
        for column, value in cells.items():
            if value is None:
                del rows[record][column]
            else:
                rows[record][column] = value
        path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_non_numeric_value_reports_line(self, tmp_path):
        ds = build_dataset(generate_designs(12, seed=1), seed=1)
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[8] = "oops"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 4"):
            load_dataset(path)


class TestLabeledDataset:
    def test_split_views_align(self):
        ds = generate_dataset(40, seed=2)
        arrays = arrays_from_dataset(ds)
        for split in ("train", "val", "test"):
            idx = ds.indices(split)
            np.testing.assert_array_equal(getattr(arrays, f"{split}_x"), ds.spectra[idx])
            targets = getattr(arrays, f"{split}_y")
            np.testing.assert_array_equal(targets, normalize_designs(ds.designs[idx]))
            assert np.all(targets >= 0.0) and np.all(targets <= 1.0)

    def test_unknown_split_rejected(self):
        ds = generate_dataset(20, seed=2)
        with pytest.raises(ValueError, match="split"):
            ds.indices("holdout")
