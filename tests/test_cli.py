import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import warnings
from argparse import Namespace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ioscope
from ioscope.agentsim import SimConfig, lifespan_survival
from ioscope import agentsim, cli, spectral, wavelet
from ioscope.cli import (Q_MFDFA, Q_WAVELET, _CHUNK, _Run, _dump,
                         _write_report, main, write_matrix_csv)
from ioscope.fractal import delta_l_field, mfdfa, wavelet_leaders
from ioscope.series import ScaleField, TimeSeries, deseasonalize_weekly, smooth

from conftest import write_series_csv
from references import brownian, json_default_loop

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
SCHEMA_PATH = os.path.join(SRC, "ioscope", "schema", "report.schema.json")


def traced_main(argv):
    """main(argv) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def write_rankings(path, rows):
    with open(path, "w") as fh:
        fh.write("source,alternative,rank\n")
        for source, alt, rank in rows:
            fh.write(f"{source},{alt},{rank}\n")
    return str(path)


def write_edges(path, edges):
    with open(path, "w") as fh:
        for e in edges:
            fh.write("\t".join(str(p) for p in e) + "\n")
    return str(path)


def write_ratings(path, ratings):
    with open(path, "w") as fh:
        fh.write("node,rating\n")
        for node, r in ratings.items():
            fh.write(f"{node},{r}\n")
    return str(path)


@pytest.fixture
def brownian_csv(tmp_path):
    return write_series_csv(tmp_path / "bm.csv",
                            np.diff(brownian(4097, seed=0).values))


class TestAnalyze:
    def test_hurst_report(self, tmp_path, brownian_csv):
        out = str(tmp_path / "out")
        code = main(["analyze", "--input", brownian_csv, "--ops", "hurst",
                     "--out", out])
        assert code == 0
        report = load_report(out)
        h = report["results"]["hurst"]["H"]
        assert 0.43 <= h <= 0.57

    def test_report_schema(self, tmp_path, brownian_csv):
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", brownian_csv,
                     "--ops", "hurst,acf", "--out", out]) == 0
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        jsonschema.validate(load_report(out), schema)

    def test_empty_ops_exit_2(self, tmp_path, brownian_csv):
        assert main(["analyze", "--input", brownian_csv, "--ops", "",
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_op_exit_2(self, tmp_path, brownian_csv):
        assert main(["analyze", "--input", brownian_csv, "--ops", "fftx",
                     "--out", str(tmp_path / "o")]) == 2

    def test_parse_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("value\n1.0\nnot-a-number\n")
        assert main(["analyze", "--input", str(bad), "--ops", "hurst",
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "nope.csv"),
                     "--ops", "hurst", "--out", str(tmp_path / "o")]) == 2

    def test_op_precondition_failure_exit_3(self, tmp_path):
        const = write_series_csv(tmp_path / "const.csv", np.ones(300))
        assert main(["analyze", "--input", const, "--ops", "acf",
                     "--out", str(tmp_path / "o")]) == 3

    def test_mfdfa_zero_fluctuation_exit_3(self, tmp_path, capsys):
        counts = np.random.default_rng(5).poisson(3.0, 1400)
        path = write_series_csv(tmp_path / "x.csv",
                                np.concatenate([np.zeros(600), counts]))
        assert main(["analyze", "--input", path, "--ops", "mfdfa",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "zero fluctuation" in err, err

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_fractal_ops_are_scale_free(self, tmp_path, capsys, scale):
        # squares of these samples underflow or overflow unless the
        # estimators scale the series first
        path = write_series_csv(tmp_path / "x.csv",
                                brownian(600, seed=3).values * scale)
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops",
                     "dl,hurst,hurst-profile,mfdfa", "--out", out]) == 0
        assert capsys.readouterr().err == ""
        results = load_report(out)["results"]
        assert any(v is not None for v in results["hurst-profile"]["values"])
        assert None not in results["mfdfa"]["tau"]
        cells = np.genfromtxt(os.path.join(out, "dl.csv"), delimiter=",")
        assert np.nanmax(cells[1:, 1:]) > 0

    def test_matrix_blocks_count_undefined_cells(self, tmp_path):
        # a window of length s leaves s - 1 of the n dl cells undefined
        n = 200
        path = write_series_csv(tmp_path / "x.csv", brownian(n, seed=6).values)
        out = tmp_path / "out"
        assert main(["analyze", "--input", path, "--ops", "dl,cwt",
                     "--out", str(out)]) == 0
        results = load_report(str(out))["results"]
        with open(out / "dl.csv") as fh:
            empty = sum(line.rstrip("\n").split(",")[1:].count("") for line in fh)
        assert results["dl"]["undefined_cells"] == empty == sum(
            s - 1 for s in range(3, n // 4 + 1))
        assert results["cwt"]["undefined_cells"] == 0

    def test_aggregated_mfdfa_takes_the_series_as_profile(self, tmp_path):
        path_values = brownian(2048, seed=4).values
        path = write_series_csv(tmp_path / "agg.csv", path_values)
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "mfdfa",
                     "--aggregated", "--out", out]) == 0
        report = load_report(out)
        assert report["preprocessing"]["steps"] == []
        assert report["preprocessing"]["aggregated"] is True
        want = mfdfa(TimeSeries(path_values), Q_MFDFA, aggregated=True)
        got = report["results"]["mfdfa"]
        for name in ("q", "tau", "alpha", "f_alpha", "h"):
            np.testing.assert_array_equal(got[name], getattr(want, name))

    def test_gabor_cli_grid_memory(self, tmp_path, rng):
        # an F x C x T complex temporary would take ~6.4 GB at this size
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(4096))
        out = tmp_path / "out"
        code, peak = traced_main(["analyze", "--input", path, "--ops", "gabor",
                                  "--out", str(out)])
        assert code == 0
        assert peak < 100e6
        lines = (out / "gabor.csv").read_text().splitlines()
        assert len(lines) == 33 and lines[1].count(",") == 4096 - 2 * 512

    def test_matrix_artifact_format(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv",
                                rng.standard_normal(300))
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "scalogram",
                     "--out", out]) == 0
        report = load_report(out)
        artifacts = [a for a in report["artifacts"] if a.endswith(".csv")]
        assert artifacts
        with open(os.path.join(out, os.path.basename(artifacts[0]))) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        assert header[0] == ""  # corner cell empty
        locations = [float(v) for v in header[1:]]
        assert locations == sorted(locations)
        scales = [float(line.split(",")[0]) for line in lines[1:]]
        assert scales == sorted(scales)
        # gnuplot companion next to the matrix
        assert any(a.endswith(".gnuplot") for a in report["artifacts"])

    def test_ccf_requires_second_input(self, tmp_path, capsys, brownian_csv):
        assert main(["analyze", "--input", brownian_csv, "--ops", "ccf",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == ("ioscope: op 'ccf': needs --input2 "
                                           "(failed ops: 1; report written)\n")

    @pytest.mark.filterwarnings("error")  # pytest captures warnings, not stderr
    @pytest.mark.parametrize("width", ["1e200", "1e-300"])
    def test_extreme_gabor_width(self, tmp_path, capsys, brownian_csv, width):
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", brownian_csv, "--ops", "gabor",
                     "--gabor-width", width, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert load_report(out)["results"]["gabor"]["artifact"] == "gabor.csv"

    @pytest.mark.filterwarnings("error")
    def test_filter_on_subnormal_series(self, tmp_path, capsys, rng):
        path = write_series_csv(tmp_path / "x.csv", 1e-310 * rng.uniform(size=512))
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "filter",
                     "--out", out]) == 0
        assert capsys.readouterr().err == ""
        values = load_report(out)["results"]["filter"]["values"]
        assert len(values) == 512 and None not in values

    def test_ccf_finds_delay(self, tmp_path, rng):
        T, delay = 400, 5
        z = rng.standard_normal(T + delay)
        x = write_series_csv(tmp_path / "x.csv", z[delay:])
        y = write_series_csv(tmp_path / "y.csv", z[:T])  # y[t] = x[t - 5]
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", x, "--input2", y, "--ops", "ccf",
                     "--out", out]) == 0
        block = load_report(out)["results"]["ccf"]
        assert block["lags"] == list(range(-(T // 4), T // 4 + 1))
        assert block["argmax_lag"] == delay

    def test_one_cwt_per_series(self, tmp_path, monkeypatch, rng):
        # four wavelet ops over x and y take each series' transform once
        calls = []
        real = wavelet.cwt

        def counting(x, *args):
            calls.append(x)
            return real(x, *args)

        monkeypatch.setattr(wavelet, "cwt", counting)
        x = write_series_csv(tmp_path / "x.csv", rng.poisson(4.0, 256))
        y = write_series_csv(tmp_path / "y.csv", rng.poisson(4.0, 256))
        assert main(["analyze", "--input", x, "--input2", y, "--ops",
                     "cwt,scalogram,coherence,wcc",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_timestamp_column_sets_the_step(self, tmp_path, rng):
        n = 64
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(n),
                                timestamps=10.0 + 0.25 * np.arange(n))
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "sma,deseason",
                     "--out", out]) == 0
        for block in load_report(out)["results"].values():
            assert block["step"] == 0.25
            assert block["times"] == (0.25 * np.arange(n)).tolist()

    def test_nonuniform_timestamps_exit_2_naming_the_file(self, tmp_path,
                                                          capsys, rng):
        stamps = np.r_[np.arange(30.0), np.arange(31.0, 61.0)]
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(60),
                                timestamps=stamps)
        assert main(["analyze", "--input", path, "--ops", "sma",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"ioscope: {path}: timestamps not uniformly spaced\n"

    def test_deseason_first_drops_the_undefined_ends(self, tmp_path, rng):
        vals = rng.standard_normal(100)
        path = write_series_csv(tmp_path / "x.csv", vals)
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "sma",
                     "--deseason-first", "--out", out]) == 0
        report = load_report(out)
        assert report["preprocessing"]["steps"] == ["deseasonalize-weekly"]
        assert report["preprocessing"]["deseason_first"] is True
        got = np.array(report["results"]["sma"]["values"], dtype=float)
        assert got.size == vals.size - 6
        ds = deseasonalize_weekly(TimeSeries(vals)).values[3:-3]
        want = smooth(TimeSeries(ds), "sma", 7).values
        np.testing.assert_array_equal(got, want)

    def test_dft_and_leaders_blocks(self, tmp_path):
        vals = brownian(1024, seed=7).values
        path = write_series_csv(tmp_path / "x.csv", vals)
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "dft,leaders",
                     "--wavelet", "morlet", "--out", out]) == 0
        results = load_report(out)["results"]
        x = TimeSeries(vals)
        spec = spectral.dft(x)
        np.testing.assert_array_equal(results["dft"]["freqs"], spec.freqs)
        np.testing.assert_array_equal(results["dft"]["amplitude"],
                                      spec.amplitude)
        want = wavelet_leaders(x, Q_WAVELET, wavelet="morlet")
        assert set(results["leaders"]) == {"q", "tau", "alpha", "f_alpha"}
        for name in ("q", "tau", "alpha", "f_alpha"):
            np.testing.assert_array_equal(results["leaders"][name],
                                          getattr(want, name))

    def test_dft_frequencies_per_unit_time(self, tmp_path):
        # 0.5 cycles per unit time sampled every 0.25: bin 32 of 256
        n, step = 256, 0.25
        t = step * np.arange(n)
        path = write_series_csv(tmp_path / "x.csv", np.sin(np.pi * t),
                                timestamps=t)
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "dft",
                     "--out", out]) == 0
        block = load_report(out)["results"]["dft"]
        np.testing.assert_array_equal(block["freqs"], np.fft.rfftfreq(n, step))
        assert block["freqs"][-1] == 2.0
        assert block["freqs"][int(np.argmax(block["amplitude"]))] == 0.5

    @pytest.mark.parametrize("n,warned", [(199, True), (200, False)])
    def test_hurst_warns_below_200_samples(self, tmp_path, n, warned):
        path = write_series_csv(tmp_path / "x.csv",
                                np.diff(brownian(n + 1, seed=8).values))
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "hurst",
                     "--out", out]) == 0
        report = load_report(out)
        assert report["warnings"] == (
            ["hurst: series shorter than 200 samples"] if warned else [])
        assert math.isfinite(report["results"]["hurst"]["H"])

    def test_config_file_fills_defaults(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv",
                                rng.standard_normal(300))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window=11\n")
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "sma",
                     "--config", str(cfg), "--out", out]) == 0
        report = load_report(out)
        assert report["preprocessing"]["window"] == 11

    @pytest.mark.parametrize("window", [5, 7], ids=["other", "the-default"])
    def test_flags_beat_config(self, tmp_path, rng, window):
        path = write_series_csv(tmp_path / "x.csv",
                                rng.standard_normal(300))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window=11\n")
        out = str(tmp_path / "out")
        assert main(["analyze", "--input", path, "--ops", "sma",
                     "--config", str(cfg), "--window", str(window),
                     "--out", out]) == 0
        assert load_report(out)["preprocessing"]["window"] == window

    def test_repeated_ops_run_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.fractal.delta_l_field
        monkeypatch.setattr(cli.fractal, "delta_l_field",
                            lambda x: calls.append(x) or real(x))
        path = write_series_csv(tmp_path / "x.csv", brownian(64, seed=3).values)
        out = tmp_path / "out"
        assert main(["analyze", "--input", path, "--ops", "dl,dl,sma,sma",
                     "--out", str(out)]) == 0
        report = load_report(out)
        assert len(calls) == 1
        assert list(report["results"]) == ["dl", "sma"]
        assert report["artifacts"] == ["dl.csv", "dl.gnuplot"]


def per_cell_write_matrix_csv(path, fld):
    """The matrix CSV written one formatted cell at a time."""
    def fmt(x):
        return "" if not np.isfinite(x) else format(float(x), ".12g")

    cells = np.abs(fld.cells) if np.iscomplexobj(fld.cells) else fld.cells
    with open(path, "w") as fh:
        fh.write("," + ",".join(fmt(c) for c in fld.cols) + "\n")
        for r in range(fld.rows.size):
            row = [fmt(fld.rows[r])]
            for c in range(fld.cols.size):
                row.append(fmt(cells[r, c]) if fld.mask[r, c] else "")
            fh.write(",".join(row) + "\n")


class TestWriteMatrixCsv:
    @staticmethod
    def awkward_field(rng, complex_cells=False):
        cells = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-8, 8, (6, 9))
        cells[0, :5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
        cells[1, :4] = [1e300, -1e-300, 1.7976931348623157e308, 5e-324]
        cells[2, :3] = [0.1234567890125, 2.0000000000005, 999999999999.5]
        cells[3, :2] = [1e12, 123456789012345.0]
        if complex_cells:
            cells = cells + 1j * rng.standard_normal((6, 9))
            cells[4, 0] = complex(3.0, 4.0)
        mask = rng.random((6, 9)) > 0.2
        mask[:3, :5] = True
        rows = np.array([1e-300, 0.5, 1.0, 2.0000000000005, 1e300, 1e301])
        return ScaleField(rows, np.arange(9) * 0.1 - 0.3,
                          np.where(mask, cells, np.nan), kind="test")

    @pytest.mark.parametrize("complex_cells", [False, True])
    def test_bytes_match_per_cell_writer(self, tmp_path, rng, complex_cells):
        fld = self.awkward_field(rng, complex_cells)
        write_matrix_csv(tmp_path / "fast.csv", fld)
        per_cell_write_matrix_csv(tmp_path / "ref.csv", fld)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "ref.csv").read_bytes()
        assert b",," in fast
        assert (b",-0," in fast) != complex_cells

    def test_writes_one_row_at_a_time(self, tmp_path, rng):
        fld = delta_l_field(TimeSeries(rng.poisson(4.0, 808).astype(float)))
        assert fld.cells.shape == (200, 808)
        tracemalloc.start()
        try:
            write_matrix_csv(tmp_path / "dl.csv", fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * fld.cells.nbytes


class TestJsonValues:
    def test_real_arrays(self):
        a = np.array([1.5, np.nan, np.inf, -np.inf, -0.0, 5e-324,
                      1.7976931348623157e308])
        text = dumped(a)
        got = json.loads(text)
        assert got == [1.5, None, None, None, -0.0, 5e-324,
                       1.7976931348623157e308]
        assert [type(v) for v in got] == [float, type(None), type(None),
                                          type(None), float, float, float]
        assert text == json.dumps(json_default_loop(a), indent=2)

    def test_integer_and_bool_arrays_print_as_floats(self):
        assert dumped(np.arange(3)) == json.dumps([0.0, 1.0, 2.0], indent=2)
        assert dumped(np.array([2 ** 60 + 1])) \
            == json.dumps(json_default_loop(np.array([2 ** 60 + 1])), indent=2)
        assert dumped(np.array([True, False])) == json.dumps([1.0, 0.0], indent=2)
        assert dumped(np.array([0.25], dtype=np.float32)) == json.dumps([0.25], indent=2)

    def test_empty_arrays(self):
        assert dumped(np.array([])) == "[]"
        assert dumped(np.array([], dtype=int)) == "[]"

    def test_arrays_not_one_dimensional_rejected(self):
        for a in (np.array([[1.0, np.nan], [np.inf, 2.0]]), np.zeros((2, 0)),
                  np.zeros((0, 2)), np.ones(())):
            with pytest.raises(TypeError):
                dumped(a)

    def test_complex_arrays_rejected(self):
        for a in (np.array([1 + 2j, 3 + 0j]), np.array([0.1 + 0.2j], dtype=np.complex64),
                  np.array([[1j], [2 + 0j]]), np.array([], dtype=complex)):
            with pytest.raises(TypeError):
                dumped(a)

    def test_numpy_scalars(self):
        assert dumped(np.float64(np.nan)) == "null"
        assert dumped(np.float64(-np.inf)) == "null"
        assert dumped(np.float32(0.5)) == "0.5"
        assert dumped(np.int64(3)) == "3"
        assert dumped({"a": None, "b": np.float32(np.inf), "c": np.int32(7)}) \
            == json.dumps({"a": None, "b": None, "c": 7}, indent=2)

    def test_other_objects_rejected(self):
        for obj in (object(), np.array(["a"]), np.array([None]), np.bool_(True),
                    1 + 2j):
            with pytest.raises(TypeError):
                dumped(obj)


def six_long_arrays(rng, n=2 ** 14):
    """Analyze results holding six n-sample arrays, with non-finite cells."""
    vals = rng.standard_normal(n)
    vals[::97] = np.nan
    vals[5], vals[6] = np.inf, -np.inf
    return {
        "sma": {"times": np.arange(n, dtype=float), "values": vals, "step": 1.0},
        "acf": {"lags": np.arange(n), "values": rng.standard_normal(n) * 1e-300,
                "se": np.float64(0.01)},
        "dft": {"freqs": np.linspace(0.0, 0.5, n),
                "amplitude": rng.standard_normal(n) * 1e300},
    }


class TestWriteReport:
    def test_bytes_match_per_cell_converter(self, rng):
        report = {
            "results": six_long_arrays(rng, 300),
            "nested": {"a": {"b": [np.int64(3), np.float32(0.25), None,
                                   np.float64(np.nan)]},
                       "ints": np.array([-2, 0, 2 ** 40]),
                       "empty": np.array([])},
            "warnings": [], "seed": None,
        }
        want = json.dumps(report, indent=2, sort_keys=True,
                          default=json_default_loop)
        # json.dumps writes the float64 nan scalar as NaN, the writer as null
        assert want.count("NaN") == 1
        assert dumped(report) == want.replace("NaN", "null")
        assert "null" in want and "0.0" in want

    def test_streams_to_the_file(self, tmp_path, rng):
        """Six 2^14-sample arrays (~1.8 MB of JSON) are written in chunks: the
        peak stays near one array's cells, not the whole string's size."""
        results = six_long_arrays(rng)
        tracemalloc.start()
        try:
            path = _write_report(_Run(Namespace(), tmp_path), "analyze", results)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 1_500_000
        assert peak < 2 * 2 ** 20
        with open(path) as fh:
            back = json.load(fh)
        assert back["results"]["acf"]["lags"][:2] == [0.0, 1.0]
        assert back["results"]["sma"]["values"][5:7] == [None, None]


def dumped(obj, sort_keys=True):
    buf = io.StringIO()
    _dump(obj, buf, sort_keys)
    return buf.getvalue()


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def mixed_report(rng):
    """Finite scalars; arrays at the chunk edges, with non-finite cells;
    strings with escapes and non-ASCII text; nested lists of dicts."""
    edge = rng.standard_normal(_CHUNK + 1)
    edge[[0, _CHUNK - 1, _CHUNK]] = [np.nan, np.inf, -np.inf]
    return {
        "one_chunk": rng.standard_normal(_CHUNK) * 1e-300,
        "chunk_plus_one": edge,
        "empty": np.array([]),
        "ints": np.array([-2, 0, 2 ** 60 + 1]),
        "bools": np.array([True, False]),
        "float32": np.array([0.25, np.nan], dtype=np.float32),
        "text": 'naïve "quoted" \\ back\tslash\n\u2028 \x00 \U0001f600',
        "nested": [{"z": [None, True, False, {}], "a": []},
                   ({"b": np.int64(3)}, np.float32(0.5), np.float64(1.5)), []],
        "none": None, "int": 7, "float": -0.0,
        "üñí": {"x": 1e300, "y": 5e-324},
    }


class TestDump:
    def test_report_file_matches_json_dumps(self, tmp_path, rng):
        results = mixed_report(rng)
        run = _Run(Namespace(seed=3), tmp_path)
        run.warnings.append("w")
        run.artifacts.append("a.csv")
        path = _write_report(run, "analyze", results)
        head = json.loads(path.read_text())
        report = {k: head[k] for k in ("version", "command", "timestamp",
                                       "input_fingerprint", "preprocessing")}
        report.update(seed=3, results=results, warnings=["w"],
                      artifacts=["a.csv"])
        want = json.dumps(report, indent=2, sort_keys=True,
                          default=json_default_loop) + "\n"
        assert path.read_text() == want

    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   2 * _CHUNK + 3])
    @pytest.mark.parametrize("dtype", [float, np.int32, bool])
    def test_arrays_at_chunk_edges(self, rng, n, dtype):
        a = (rng.standard_normal(n) * 1e3).astype(dtype)
        if dtype is float and n:
            a[n - 1] = np.nan
            a[:: max(1, n // 3)] = np.inf
        obj = {"b": [a, {"c": a}], "a": a}
        assert dumped(obj) == json.dumps(obj, indent=2, sort_keys=True,
                                         default=json_default_loop)

    def test_two_dimensional_and_complex_arrays_rejected(self):
        for a in (np.array([[1.0, np.nan], [np.inf, 2.0]]), np.zeros((2, 0)),
                  np.array([1 + 2j, 3 + 0j, complex(np.nan, 1.0)]),
                  np.array([[1j], [2 + 0j]])):
            with pytest.raises(TypeError):
                dumped({"m": [{"a": a}]})

    def test_non_finite_scalars_are_null(self, tmp_path):
        results = {"a": np.float64(np.inf), "b": float("nan"),
                   "c": [np.float64(-np.inf)], "d": np.float32(np.nan)}
        path = _write_report(_Run(Namespace(), tmp_path), "analyze", results)
        with open(path) as fh:
            back = json.load(fh, parse_constant=reject_constant)
        assert back["results"] == {"a": None, "b": None, "c": [None],
                                   "d": None}

    def test_insertion_order_without_sort_keys(self):
        obj = {"z": 1, "a": [{"y": np.arange(3), "b": None}], 1: "k",
               2.5: "f", False: "n", None: "v"}
        assert dumped(obj, sort_keys=False) == json.dumps(
            obj, indent=2, default=json_default_loop)

    def test_unserializable_objects_rejected(self):
        for obj in ({"a": object()}, [np.array(["a"])], np.bool_(True)):
            with pytest.raises(TypeError):
                dumped(obj)

    def test_detections_keep_insertion_order(self, tmp_path, rng, monkeypatch):
        written = []

        def recording_dump(obj, fh, sort_keys, *rest):
            if not rest:
                written.append((obj, sort_keys))
            _dump(obj, fh, sort_keys, *rest)

        monkeypatch.setattr(cli, "_dump", recording_dump)
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(300))
        out = tmp_path / "out"
        assert main(["scan", "--input", path, "--threshold", "0.3",
                     "--scales", "3:60:3", "--out", str(out)]) == 0
        payload, sort_keys = written[0]
        assert not sort_keys and payload["detections"]
        text = (out / "detections.json").read_text()
        assert text == json.dumps(payload, indent=2,
                                  default=json_default_loop) + "\n"
        first = json.loads(text)["detections"][0]
        assert list(first) == ["template", "scale", "location", "score",
                               "phase_marks"]


class TestScan:
    def test_threshold_out_of_range_exit_2(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv",
                                rng.standard_normal(200))
        assert main(["scan", "--input", path, "--threshold", "1.01",
                     "--out", str(tmp_path / "o")]) == 2

    def test_builtin_bank_size(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv",
                                rng.standard_normal(200))
        out = str(tmp_path / "out")
        assert main(["scan", "--input", path, "--threshold", "0.5",
                     "--scales", "5:30:5", "--out", out]) == 0
        with open(os.path.join(out, "detections.json")) as fh:
            payload = json.load(fh)
        assert len(payload["templates"]) == 3

    def test_embedded_template_detected(self, tmp_path, rng):
        from ioscope.templates import io_phase_template, resample_template
        tpl = np.asarray(
            resample_template(io_phase_template(45), 20).samples)
        vals = rng.standard_normal(200) * 0.05 * np.ptp(tpl)
        vals[80:100] += tpl
        path = write_series_csv(tmp_path / "x.csv", vals)
        out = str(tmp_path / "out")
        assert main(["scan", "--input", path, "--threshold", "0.9",
                     "--scales", "10:30:5", "--out", out]) == 0
        with open(os.path.join(out, "detections.json")) as fh:
            payload = json.load(fh)
        hits = [d for d in payload["detections"]
                if d["template"] == "io-attack-front"
                and abs(d["location"] - 80) <= 2]
        assert hits

    def test_phase_marks_follow_resampled_template(self, tmp_path, rng):
        from ioscope.templates import builtin_bank, resample_template
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(300))
        out = str(tmp_path / "out")
        assert main(["scan", "--input", path, "--threshold", "0.3",
                     "--scales", "3:120:3", "--out", out]) == 0
        with open(os.path.join(out, "detections.json")) as fh:
            payload = json.load(fh)
        bank = {t.name: t for t in builtin_bank()}
        scales = {d["scale"] for d in payload["detections"]}
        assert {3, 45} <= scales
        for d in payload["detections"]:
            want = resample_template(bank[d["template"]], d["scale"]).phase_marks
            got = [(m["offset"], m["label"]) for m in d["phase_marks"]]
            assert got == list(want)

    def test_scale_range_clipped_to_series(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(100))
        payloads = []
        for name, scales in (("fit", "5:100:1"), ("huge", "5:200000:1")):
            out = str(tmp_path / name)
            code, peak = traced_main(["scan", "--input", path, "--threshold",
                                      "0.5", "--scales", scales, "--out", out])
            assert code == 0
            assert peak < 50e6
            with open(os.path.join(out, "detections.json")) as fh:
                payloads.append(fh.read())
        assert json.loads(payloads[0])["detections"]
        assert payloads[0] == payloads[1]

    def test_no_window_fits(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(100))
        out = str(tmp_path / "out")
        assert main(["scan", "--input", path, "--scales", "101:300:1",
                     "--out", out]) == 0
        assert load_report(out)["results"]["detections"] == 0

    def test_fingerprint_covers_the_template_files(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(200))
        bank = tmp_path / "bank"
        bank.mkdir()
        samples = np.sin(np.linspace(0.0, 2.0 * np.pi, 20))
        tpl = bank / "wave.csv"
        prints = []
        for tweak in (0.0, 0.5):
            samples[7] += tweak
            tpl.write_text("".join(f"{v!r}\n" for v in samples.tolist()))
            out = str(tmp_path / f"out{tweak}")
            assert main(["scan", "--input", path, "--templates", str(bank),
                         "--scales", "10:30:5", "--threshold", "0.5",
                         "--out", out]) == 0
            prints.append(load_report(out)["input_fingerprint"])
            want = hashlib.sha256(
                Path(path).read_bytes() + tpl.read_bytes()).hexdigest()
            assert prints[-1] == want
        assert prints[0] != prints[1]

    def test_builtin_bank_fingerprints_the_series_alone(self, tmp_path, rng):
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(200))
        out = str(tmp_path / "out")
        assert main(["scan", "--input", path, "--scales", "10:30:5",
                     "--out", out]) == 0
        want = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert load_report(out)["input_fingerprint"] == want

    def test_template_resampling_to_constant_exit_0(self, tmp_path, rng):
        bank = tmp_path / "bank"
        bank.mkdir()
        (bank / "spike.csv").write_text("0\n0\n0\n1\n0\n0\n0\n0\n0\n")
        path = write_series_csv(tmp_path / "x.csv", rng.standard_normal(100))
        out = str(tmp_path / "out")
        assert main(["scan", "--input", path, "--templates", str(bank),
                     "--scales", "4:8:1", "--threshold", "0.5",
                     "--out", out]) == 0
        with open(os.path.join(out, "detections.json")) as fh:
            scales = {d["scale"] for d in json.load(fh)["detections"]}
        assert scales and 5 not in scales

    def test_huge_template_of_both_signs_exit_0_without_warnings(self, tmp_path):
        bank = tmp_path / "bank"
        bank.mkdir()
        (bank / "big.csv").write_text("1\n2\n1e308\n-1e308\n")
        counts = np.random.default_rng(2).poisson(3.0, 300)
        path = write_series_csv(tmp_path / "x.csv", counts)
        out = str(tmp_path / "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["scan", "--input", path, "--templates", str(bank),
                         "--out", out]) == 0
        assert not caught
        assert load_report(out)["results"]["detections"] > 0


class TestSimulate:
    def test_invalid_probability_exit_2(self, tmp_path):
        assert main(["simulate", "--pl", "1.2",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("phi", ["one", "saturating"])
    @pytest.mark.parametrize("e_ref", ["nan", "inf", "0", "-2"])
    def test_phi_e_ref_not_finite_positive_exit_2(self, tmp_path, capsys,
                                                   phi, e_ref):
        assert main(["simulate", "--phi", phi, "--phi-e-ref", e_ref,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "e_ref" in err
        assert not (tmp_path / "o" / "population.csv").exists()

    def test_reference_config_report(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["simulate", "--pl", "0.4", "--pr", "0.1",
                     "--ticks", "40", "--seed", "11", "--out", out]) == 0
        report = load_report(out)
        block = report["results"]
        assert "weibull_fit" in block
        assert "survival_beyond_1.5e0" in block
        assert set(block["survival_beyond_1.5e0"]) == {"one", "saturating"}

    def test_survival_honours_dislikes(self, tmp_path):
        argv = ["simulate", "--pl", "0.4", "--pr", "0.1", "--e0", "10",
                "--ticks", "100", "--seed", "7"]
        got = {}
        for pd in ("0", "0.5"):
            out = str(tmp_path / pd)
            assert main(argv + ["--pd", pd, "--out", out]) == 0
            got[pd] = load_report(out)["results"]["survival_beyond_1.5e0"]
            for tag, value in got[pd].items():
                cfg = SimConfig(p_l0=0.4, p_d0=float(pd), p_r0=0.1, phi=tag)
                assert value == lifespan_survival(10, cfg, 15)
        assert got["0.5"]["one"] == pytest.approx(0.117523, abs=1e-6)
        assert got["0.5"]["saturating"] == pytest.approx(0.052329, abs=1e-6)
        assert all(got["0.5"][tag] < got["0"][tag] for tag in got["0"])

    def test_seed_reproducible(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["simulate", "--pr", "0.3", "--ticks", "30",
                         "--seed", "5", "--out", out]) == 0
            report = load_report(out)
            report.pop("timestamp")
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]


    @pytest.mark.parametrize("cfg, ticks, cap", [
        (SimConfig(p_r0=1.0, seed=3), 8, 40),
        (SimConfig(p_l0=0.0, p_r0=0.0, e0=3, seed=3), 9, None)], ids=["capped", "dies-out"])
    def test_population_csv_rows(self, tmp_path, monkeypatch, cfg, ticks, cap):
        """population.csv is the header, then one tick,alive,births,deaths
        row per tick 0..--ticks; after the population dies out the rows
        are zeros."""
        if cap is not None:
            monkeypatch.setattr(agentsim, "POPULATION_CAP", cap)
        out = tmp_path / "out"
        assert main(["simulate", "--pl", repr(cfg.p_l0), "--pr", repr(cfg.p_r0),
                     "--e0", str(cfg.e0), "--seed", str(cfg.seed),
                     "--ticks", str(ticks), "--out", str(out)]) == 0
        sim = agentsim.simulate_population(cfg, ticks)
        rows = zip(range(ticks + 1), sim.alive, sim.births, sim.deaths)
        want = "tick,alive,births,deaths\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows)
        assert (out / "population.csv").read_text() == want
        assert load_report(out)["results"]["capped"] == (cap is not None)
        if cap is None:
            assert want.endswith("3,0,0,1\n" + "".join(f"{t},0,0,0\n" for t in range(4, 10)))
        else:
            assert sum(sim.births) == cap


class TestGraph:
    def test_k4_density(self, tmp_path):
        nodes = "abcd"
        edges = [(u, v, 1) for u in nodes for v in nodes if u != v]
        path = write_edges(tmp_path / "e.tsv", edges)
        out = str(tmp_path / "out")
        assert main(["graph", "--edges", path, "--ops", "stats",
                     "--out", out]) == 0
        stats = load_report(out)["results"]["stats"]
        assert stats["density"] == pytest.approx(1.0)

    def test_inverse_star_flagged(self, tmp_path):
        edges = [("target", f"b{i}") for i in range(6)]
        ratings = {"target": 100.0}
        ratings.update({f"b{i}": 1.0 for i in range(6)})
        epath = write_edges(tmp_path / "e.tsv", edges)
        rpath = write_ratings(tmp_path / "r.csv", ratings)
        out = str(tmp_path / "out")
        assert main(["graph", "--edges", epath, "--ratings", rpath,
                     "--ops", "ioscore", "--out", out]) == 0
        io = load_report(out)["results"]["ioscore"]
        assert io["score"] >= 0.9
        assert any(c["flagged"] for c in io["components"].values())

    def test_ioscore_without_ratings_exit_3(self, tmp_path, capsys):
        path = write_edges(tmp_path / "e.tsv", [("a", "b", 1)])
        assert main(["graph", "--edges", path, "--ops", "ioscore",
                     "--out", str(tmp_path / "o")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ioscope: op 'ioscore': ")

    def test_hits_reports_out_degree_too(self, tmp_path):
        path = write_edges(tmp_path / "e.tsv",
                           [("a", "b", 2), ("b", "c", 1), ("a", "c", 1)])
        out = str(tmp_path / "out")
        assert main(["graph", "--edges", path, "--ops", "hits",
                     "--out", out]) == 0
        block = load_report(out)["results"]["hits"]
        assert "authority" in block and "hub" in block
        # impact edges b -> a (2), c -> b (1), c -> a (1), in node order
        assert list(block["out_degree"].items()) == [("a", 0), ("b", 2), ("c", 2)]

    def test_edge_count_is_multiplicity(self, tmp_path):
        path = write_edges(tmp_path / "e.tsv", [("a", "b", 3000000),
                                                ("c", "c", 7)])
        out = str(tmp_path / "out")
        code, peak = traced_main(["graph", "--edges", path, "--ops", "hits",
                                  "--out", out])
        assert code == 0
        assert peak < 5e6
        results = load_report(out)["results"]
        assert results["hits"]["out_degree"] == {"a": 0, "b": 3000000, "c": 0}
        assert results["dropped_self_loops"] == 7


class TestFailedOps:
    """A failing op of `analyze` or `graph` leaves an error block; the
    other ops still run, and the report is written before exit 3."""

    def test_graph_keeps_the_blocks_that_ran(self, tmp_path, capsys):
        epath = write_edges(tmp_path / "e.tsv", [("a", "b"), ("b", "c"), ("c", "a")])
        rpath = write_ratings(tmp_path / "r.csv", {"a": 5.0})
        argv = ["graph", "--edges", epath, "--ratings", rpath, "--ops"]
        assert main(argv + ["stats,hits,ioscore", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert main(argv + ["stats,hits", "--out", str(tmp_path / "ok")]) == 0
        report, ok = load_report(tmp_path / "out"), load_report(tmp_path / "ok")
        results = report["results"]
        message = results["ioscore"]["error"]
        assert "80%" in message and set(results["ioscore"]) == {"error"}
        assert err == (f"ioscope: op 'ioscore': {message} "
                       "(failed ops: 1; report written)\n")
        assert report["failed_ops"] == ["ioscore"] and "failed_ops" not in ok
        assert {k: v for k, v in results.items() if k != "ioscore"} == ok["results"]
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        jsonschema.validate(report, schema)
        for bad in ({"error": 3}, {"error": message, "score": 0.5}):
            broken = dict(report, results=dict(results, ioscore=bad))
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(broken, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(dict(report, failed_ops=[]), schema)

    def test_analyze_runs_every_op_and_counts_the_failures(self, tmp_path, capsys):
        path = write_series_csv(tmp_path / "x.csv", brownian(256, seed=9).values)
        argv = ["analyze", "--input", path, "--ops"]
        assert main(argv + ["sma,ccf,dl,wcc,dft", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert main(argv + ["sma,dl,dft", "--out", str(tmp_path / "ok")]) == 0
        report, ok = load_report(tmp_path / "out"), load_report(tmp_path / "ok")
        assert err == ("ioscope: op 'ccf': needs --input2 "
                       "(failed ops: 2; report written)\n")
        assert report["failed_ops"] == ["ccf", "wcc"]
        assert report["results"].pop("ccf") == {"error": "needs --input2"}
        assert report["results"].pop("wcc") == {"error": "needs --input2"}
        assert report["results"] == ok["results"]
        assert report["artifacts"] == ok["artifacts"] == ["dl.csv", "dl.gnuplot"]
        assert ((tmp_path / "out" / "dl.csv").read_bytes()
                == (tmp_path / "ok" / "dl.csv").read_bytes())

    def test_out_of_memory_in_an_op_is_its_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(run):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setitem(cli.ANALYZE_OPS, "dl", exhausted)
        path = write_series_csv(tmp_path / "x.csv", brownian(64, seed=3).values)
        out = tmp_path / "out"
        assert main(["analyze", "--input", path, "--ops", "dl,sma",
                     "--out", str(out)]) == 3
        message = "out of memory: Unable to allocate 8.00 EiB"
        assert capsys.readouterr().err == (f"ioscope: op 'dl': {message} "
                                           "(failed ops: 1; report written)\n")
        report = load_report(out)
        assert report["failed_ops"] == ["dl"] and "sma" in report["results"]
        assert report["results"]["dl"] == {"error": message}

    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "{bad}", "--ops", "sma"],
        ["analyze", "--input", "{good}", "--ops", "sma,fftx"],
        ["analyze", "--input", "{good}", "--ops", "sma", "--window", "0"],
    ], ids=["bad-input", "unknown-op", "bad-flag"])
    def test_exit_2_writes_no_report(self, tmp_path, argv):
        files = {"bad": tmp_path / "bad.csv", "good": tmp_path / "good.csv"}
        files["bad"].write_text("value\n1.0\nx\n")
        write_series_csv(files["good"], np.arange(20.0))
        out = tmp_path / "out"
        assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == 2
        assert not (out / "report.json").exists()


class TestFuse:
    def test_single_source_echo(self, tmp_path):
        path = write_rankings(tmp_path / "r.csv",
                              [("s1", "c", 1), ("s1", "a", 2), ("s1", "b", 3)])
        out = str(tmp_path / "out")
        assert main(["fuse", "--rankings", path, "--method", "borda",
                     "--out", out]) == 0
        ranking = load_report(out)["results"]["ranking"]
        order = [alt for alt, _ in sorted(ranking.items(),
                                          key=lambda kv: (kv[1], kv[0]))]
        assert order == ["c", "a", "b"]

    def test_kemeny_exact_bound_exit_3(self, tmp_path, capsys):
        rows = [("s1", f"x{i:02d}", i + 1) for i in range(12)]
        path = write_rankings(tmp_path / "r.csv", rows)
        assert main(["fuse", "--rankings", path, "--method", "kemeny",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "ioscope: exact search limited to 8 alternatives\n"

    def test_kemeny_heuristic_large_ok(self, tmp_path):
        rows = [("s1", f"x{i:02d}", i + 1) for i in range(12)]
        path = write_rankings(tmp_path / "r.csv", rows)
        assert main(["fuse", "--rankings", path, "--method", "kemeny",
                     "--heuristic", "--out", str(tmp_path / "o")]) == 0

    def test_condorcet_reports_the_cycle(self, tmp_path):
        rows = [(s, alt, i + 1) for s, order in (("s1", "abc"), ("s2", "bca"),
                                                 ("s3", "cab"))
                for i, alt in enumerate(order)]
        out = str(tmp_path / "out")
        assert main(["fuse", "--rankings", write_rankings(tmp_path / "r.csv", rows),
                     "--method", "condorcet", "--out", out]) == 0
        results = load_report(out)["results"]
        assert results["method"] == "condorcet"
        assert results["cycles"] == [["a", "b", "c"]]
        assert results["ranking"] == {"a": 1, "b": 1, "c": 1}

    def test_huge_estimates_exit_0(self, tmp_path):
        path = write_rankings(tmp_path / "r.csv", [("s1", "a", 1), ("s1", "b", 2),
                                                   ("s2", "a", 1), ("s3", "b", 1)])
        est = tmp_path / "e.csv"
        est.write_text("source,E\ns1,1.5e308\ns2,1.5e308\ns3,1.5e308\n")
        out = str(tmp_path / "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fuse", "--rankings", path, "--estimates", str(est),
                         "--weighting", "density", "--out", out]) == 0
        assert not caught
        assert load_report(out)["results"]["weights"] == {"s1": 0.5, "s2": 0.25,
                                                         "s3": 0.25}

    def test_density_weights_proportional_to_estimates(self, tmp_path):
        rows = []
        for s in ("s1", "s2"):
            for i, alt in enumerate(["a", "b", "c"]):
                rows.append((s, alt, i + 1))
        rpath = write_rankings(tmp_path / "r.csv", rows)
        epath = tmp_path / "e.csv"
        epath.write_text("source,E\ns1,2.0\ns2,6.0\n")
        out = str(tmp_path / "out")
        assert main(["fuse", "--rankings", rpath, "--estimates", str(epath),
                     "--weighting", "density", "--method", "borda",
                     "--out", out]) == 0
        weights = load_report(out)["results"]["weights"]
        assert weights["s1"] == pytest.approx(0.25)
        assert weights["s2"] == pytest.approx(0.75)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, ioscope.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_runtime_loads_only_numpy_and_the_standard_library():
    """Importing the package, its CLI and every submodule loads no
    third-party package but numpy (networkx and scipy are test-only)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = ("import importlib, pkgutil, sys\n"
             "before = set(sys.modules)\n"
             "import ioscope, ioscope.cli\n"
             "for m in pkgutil.iter_modules(ioscope.__path__):\n"
             "    importlib.import_module('ioscope.' + m.name)\n"
             "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert {"ioscope", "numpy"} <= loaded
    assert "networkx" not in loaded
    assert loaded - set(sys.stdlib_module_names) == {"ioscope", "numpy"}


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="no /proc/self/task to count threads")


def import_probe(imports, **thread_vars):
    """Run ``imports`` in a fresh interpreter whose environment holds no
    BLAS thread variable but ``thread_vars``. Returns its thread count,
    whether its os.environ still equals the one it started with, and
    whether numpy is loaded."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(thread_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = ("import json, os, sys\n"
             "start = dict(os.environ)\n"
             f"{imports}\n"
             "print(json.dumps([len(os.listdir('/proc/self/task')),"
             " dict(os.environ) == start, 'numpy' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@needs_proc_tasks
def test_package_import_loads_no_numpy():
    assert import_probe("import ioscope") == [1, True, False]


@needs_proc_tasks
@pytest.mark.parametrize("imports", ["import ioscope.cli",
                                     "from ioscope.cli import main"])
def test_cli_import_starts_no_blas_thread(imports):
    """``python -m ioscope.cli`` and the console script load numpy's BLAS
    with one thread, and leave os.environ as the process found it."""
    assert import_probe(imports) == [1, True, True]


@needs_proc_tasks
@pytest.mark.parametrize("thread_vars", [{"OPENBLAS_NUM_THREADS": "2"},
                                         {"OMP_NUM_THREADS": "2"}, {}],
                         ids=["openblas", "omp", "numpy-first"])
def test_cli_import_keeps_the_callers_blas_threads(thread_vars):
    """With a thread variable set, or numpy loaded first, importing the
    CLI starts the threads that importing numpy alone starts."""
    imports = "import ioscope.cli" if thread_vars else "import numpy, ioscope.cli"
    assert (import_probe(imports, **thread_vars)
            == import_probe("import numpy", **thread_vars))


def gc_probe(imports):
    """Run ``imports`` in a fresh interpreter, then make a reference cycle
    and collect. Returns the freeze count after the imports, whether
    collection is enabled, and whether the cycle was freed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = ("import gc, json, weakref\n"
             f"{imports}\n"
             "frozen = gc.get_freeze_count()\n"
             "class Node: pass\n"
             "a, b = Node(), Node()\n"
             "a.other, b.other = b, a\n"
             "ref = weakref.ref(a)\n"
             "del a, b\n"
             "gc.collect()\n"
             "print(json.dumps([frozen, gc.isenabled(), ref() is None]))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_freezes_its_heap():
    """A CLI run moves the import-time heap out of the collector's reach,
    and still collects the cycles it makes itself."""
    frozen, enabled, freed = gc_probe("import ioscope.cli")
    assert frozen > 0
    assert enabled and freed


def test_cli_import_after_numpy_freezes_nothing():
    assert gc_probe("import numpy, ioscope.cli") == [0, True, True]


def test_frozen_cli_run_writes_the_same_bytes(tmp_path, rng):
    """``python -m ioscope.cli`` (heap frozen) and main() under pytest
    (numpy loaded first, nothing frozen) write the same artifacts, and
    the same report apart from its timestamp."""
    x = write_series_csv(tmp_path / "x.csv", rng.poisson(3.0, 256))
    argv = ["analyze", "--input", x, "--ops", "cwt,dl,sma"]
    frozen, thawed = tmp_path / "frozen", tmp_path / "thawed"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "ioscope.cli", *argv, "--out", str(frozen)],
                   env=env, capture_output=True, check=True)
    assert main([*argv, "--out", str(thawed)]) == 0
    names = sorted(p.name for p in frozen.iterdir())
    assert names == sorted(p.name for p in thawed.iterdir())
    assert {"cwt.csv", "dl.csv", "report.json"} <= set(names)
    assert len(load_report(frozen)["results"]["sma"]["values"]) == 256
    for name in names:
        a, b = ((d / name).read_bytes() for d in (frozen, thawed))
        if name == "report.json":
            a, b = (re.sub(rb'"timestamp": "[^"]*"', b"", r) for r in (a, b))
        assert a == b, name


@pytest.mark.parametrize("module", ["ioscope"] + sorted(
    "ioscope." + m.name for m in pkgutil.iter_modules(ioscope.__path__)))
def test_public_names_resolve(module):
    """Every name a module lists in ``__all__`` exists, so that a star
    import of the module works."""
    names = getattr(importlib.import_module(module), "__all__", [])
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= set(namespace)


def test_runs_load_no_openssl(tmp_path, rng):
    """analyze, fuse, graph and scan take the input fingerprint from
    CPython's built-in SHA-256, so no run maps OpenSSL through hashlib's
    _hashlib, and the digest is hashlib's. simulate is left out: its
    numpy.random imports secrets, which loads _hashlib itself."""
    x = write_series_csv(tmp_path / "x.csv", rng.poisson(3.0, 300))
    y = write_series_csv(tmp_path / "y.csv", rng.poisson(3.0, 300))
    bank = tmp_path / "bank"
    bank.mkdir()
    for name, k in (("a", 1.0), ("b", 2.0)):
        (bank / f"{name}.csv").write_text(
            "".join(f"{v!r}\n" for v in np.sin(k * np.arange(12.0)).tolist()))
    ranks = write_rankings(tmp_path / "r.csv", [("s1", "a", 1), ("s1", "b", 2),
                                                ("s2", "b", 1), ("s2", "a", 2)])
    edges = write_edges(tmp_path / "e.tsv", [("a", "b", 2), ("b", "c", 1)])
    runs = [["analyze", "--input", x, "--input2", y, "--ops", "sma,dft,ccf"],
            ["fuse", "--rankings", ranks, "--method", "kemeny"],
            ["graph", "--edges", edges, "--ops", "stats,hits"],
            ["scan", "--input", x, "--templates", str(bank), "--scales", "5:9:2"]]
    outs = [str(tmp_path / f"o{i}") for i in range(len(runs))]
    runs = [argv + ["--out", out] for argv, out in zip(runs, outs)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = ("import json, sys\n"
             "from ioscope.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, '_hashlib' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[0] * len(runs), False]
    files = {0: [x, y], 3: [x, bank / "a.csv", bank / "b.csv"]}
    for i, paths in files.items():
        want = hashlib.sha256(b"".join(Path(p).read_bytes() for p in paths))
        assert load_report(outs[i])["input_fingerprint"] == want.hexdigest()


@pytest.mark.parametrize("command", ["analyze", "scan", "simulate", "graph", "fuse"])
def test_report_lists_files_read_and_written(tmp_path, rng, command):
    """``artifacts`` names exactly the files beside report.json, and
    ``input_fingerprint`` is the SHA-256 of the bytes of the files read,
    in the order they were read."""
    x = write_series_csv(tmp_path / "x.csv", rng.poisson(3.0, 256))
    y = write_series_csv(tmp_path / "y.csv", rng.poisson(3.0, 256))
    bank = tmp_path / "bank"
    bank.mkdir()
    for name, k in (("b", 2.0), ("a", 1.0)):
        (bank / f"{name}.csv").write_text(
            "".join(f"{v!r}\n" for v in np.sin(k * np.arange(12.0)).tolist()))
    ranks = write_rankings(tmp_path / "r.csv", [("s1", "a", 1), ("s1", "b", 2),
                                                ("s2", "b", 1), ("s2", "a", 2)])
    est = tmp_path / "est.csv"
    est.write_text("source,E\ns2,0.5\ns1,2\n")
    edges = write_edges(tmp_path / "e.tsv", [("a", "b", 2), ("b", "c", 1), ("c", "a")])
    ratings = write_ratings(tmp_path / "ratings.csv", {"a": 1.0, "b": 2.0, "c": 3.0})
    argv, read = {
        "analyze": (["--input", x, "--input2", y, "--ops", "sma,cwt,wcc,dl"], [x, y]),
        "scan": (["--input", x, "--templates", str(bank), "--scales", "5:9:2"],
                 [x, bank / "a.csv", bank / "b.csv"]),
        "simulate": (["--ticks", "5", "--seed", "1"], []),
        "graph": (["--edges", edges, "--ratings", ratings, "--ops", "stats,hits"],
                  [edges, ratings]),
        "fuse": (["--rankings", ranks, "--estimates", str(est), "--weighting",
                  "density", "--method", "kemeny"], [ranks, est]),
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    report = load_report(out)
    assert sorted(report["artifacts"]) == sorted(
        p.name for p in out.iterdir() if p.name != "report.json")
    want = hashlib.sha256(b"".join(Path(p).read_bytes() for p in read))
    assert report["input_fingerprint"] == want.hexdigest()


def test_ops_load_no_numpy_ma(tmp_path, rng):
    """The ops that used to take distinct values from np.unique (hurst,
    mfdfa, gabor, hurst-profile, the rank rules, graph adjacency) run
    without loading numpy.ma."""
    series = write_series_csv(tmp_path / "x.csv", rng.poisson(3.0, 400))
    ranks = write_rankings(tmp_path / "r.csv",
                           [("s1", "a", 1), ("s1", "b", 2), ("s1", "c", 3),
                            ("s2", "c", 1), ("s2", "a", 2), ("s3", "b", 1)])
    edges = write_edges(tmp_path / "e.tsv",
                        [("a", "b", 2), ("b", "c", 1), ("c", "a", 1), ("a", "c", 1)])
    runs = [["analyze", "--input", series, "--ops", "hurst,mfdfa,gabor,hurst-profile"]]
    runs += [["fuse", "--rankings", ranks, "--method", m]
             for m in ("borda", "condorcet", "kemeny")]
    runs += [["graph", "--edges", edges, "--ops", "stats,hits"]]
    runs = [argv + ["--out", str(tmp_path / f"o{i}")] for i, argv in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = ("import json, sys\n"
             "from ioscope.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[0] * len(runs), False]


# A run of every analyze op under both wavelets, every graph op, every
# fuse method under both weightings, scan with the builtin bank and with a
# template directory, and a simulate run whose Weibull fit is an error
# block; "{name}" stands for an input that every_op_inputs writes.
EVERY_OP_RUNS = {
    **{f"analyze-{w}": ["analyze", "--input", "{x}", "--input2", "{y}", "--wavelet", w,
                        "--ops", ",".join(cli.ANALYZE_OPS)]
       for w in ("mexican-hat", "morlet")},
    "graph": ["graph", "--edges", "{edges}", "--ratings", "{ratings}",
              "--ops", "stats,hits,ioscore"],
    **{f"fuse-{m}{'-heuristic' * h}-{w}": [
        "fuse", "--rankings", "{ranks}", "--estimates", "{est}", "--weighting", w,
        "--method", m] + ["--heuristic"] * h
       for w in ("density", "dispersion")
       for m, h in (("borda", 0), ("condorcet", 0), ("kemeny", 0), ("kemeny", 1))},
    "scan-builtin": ["scan", "--input", "{x}", "--threshold", "0.5"],
    "scan-templates": ["scan", "--input", "{x}", "--templates", "{bank}",
                       "--threshold", "0.5"],
    "simulate": ["simulate", "--ticks", "5", "--seed", "1"],
}


def every_op_inputs(tmp_path, rng) -> dict:
    """The input files of EVERY_OP_RUNS, by name."""
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "sine.csv").write_text(
        "".join(f"{v!r}\n" for v in np.sin(np.arange(16.0)).tolist()))
    est = tmp_path / "est.csv"
    est.write_text("source,E\ns1,2\ns2,0.5\ns3,1\n")
    return {
        "x": write_series_csv(tmp_path / "x.csv", rng.poisson(3.0, 512)),
        "y": write_series_csv(tmp_path / "y.csv", rng.poisson(3.0, 512)),
        "bank": str(bank),
        "ranks": write_rankings(tmp_path / "r.csv", [
            (s, alt, i + 1) for s, order in (("s1", "abcd"), ("s2", "bcad"),
                                             ("s3", "cabd"))
            for i, alt in enumerate(order)]),
        "est": str(est),
        "edges": write_edges(tmp_path / "e.tsv", [("a", "b", 2), ("b", "c", 1),
                                                  ("c", "a", 1), ("a", "c", 1),
                                                  ("d", "a", 3)]),
        "ratings": write_ratings(tmp_path / "ratings.csv",
                                 {"a": 1.0, "b": 2.0, "c": 3.0, "d": 0.5}),
    }


def plain_json_values(obj):
    """Every value in obj, depth first, dict keys left out."""
    yield obj
    for v in (obj.values() if isinstance(obj, dict)
              else obj if isinstance(obj, list) else ()):
        yield from plain_json_values(v)


@pytest.mark.parametrize("name", EVERY_OP_RUNS)
def test_every_op_report_is_plain_json(tmp_path, rng, name):
    """Each run's report.json and detections.json load without NaN or
    Infinity constants and hold only dicts, lists, strings, numbers,
    booleans and nulls."""
    inputs = every_op_inputs(tmp_path, rng)
    out = tmp_path / "out"
    assert main([a.format(**inputs) for a in EVERY_OP_RUNS[name]]
                + ["--out", str(out)]) == 0
    paths = [out / "report.json"]
    if name.startswith("scan"):
        paths.append(out / "detections.json")
    for path in paths:
        with open(path) as fh:
            back = json.load(fh, parse_constant=reject_constant)
        for v in plain_json_values(back):
            assert type(v) in (dict, list, str, int, float, bool, type(None)), v
    if name == "simulate":
        assert set(load_report(out)["results"]["weibull_fit"]) == {"error"}
