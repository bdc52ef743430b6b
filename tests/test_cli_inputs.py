"""Input contract of the CLI: every input file ends in exit 0, 2 or 3,
and a failure prints one stderr line; a bad row names path:lineno."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioscope.cli import _read_rankings_csv, _Run, build_parser, main, read_series_csv
from ioscope.errors import InvalidArgument

SERIES = "value\n" + "".join(f"{np.sin(0.3 * i) + 0.01 * i:.6f}\n"
                             for i in range(64))
EDGES = "a\tb\nb\tc\t2\nc\ta\n"
RATINGS = "node,rating\na,1\nb,2\nc,30\n"
RANKINGS = "source,alternative,rank\ns1,a,1\ns1,b,2\ns2,b,1\ns2,a,2\n"
ESTIMATES = "s1,1.0\ns2,2.0\n"


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_child(argv, **kwargs):
    """``python -m ioscope.cli`` with ``argv`` in a child process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ioscope.cli", *argv], env=env,
                          capture_output=True, **kwargs)


def read(reader, path):
    """``reader``'s result on the file at ``path``, read as a run reads it."""
    return reader(*_Run(None, None).read(path))


def write(path, content):
    path = Path(path)
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def case_edge_count_not_integer(d):
    return ["graph", "--edges", write(d / "e.tsv", "a\tb\nb\tc\t1.5\n")], "e.tsv:2:"


def case_edge_count_zero(d):
    return ["graph", "--edges", write(d / "e.tsv", "a\tb\nb\tc\t0\n")], "e.tsv:2:"


def case_edge_count_negative_on_line_1(d):
    return ["graph", "--edges", write(d / "e.tsv", "a\tb\t-3\nb\tc\n")], "e.tsv:1:"


def case_template_sample_not_numeric(d):
    (d / "bank").mkdir()
    write(d / "bank" / "t.csv", "1\n2\nx\n3\n")
    return ["scan", "--input", write(d / "x.csv", SERIES),
            "--templates", str(d / "bank")], "t.csv:3:"


def case_estimate_not_numeric(d):
    return ["fuse", "--rankings", write(d / "r.csv", RANKINGS),
            "--estimates", write(d / "est.csv", "source,E\ns1,2.0\ns2,abc\n"),
            "--weighting", "density"], "est.csv:3:"


def case_estimate_for_unknown_source(d):
    return ["fuse", "--rankings", write(d / "r.csv", RANKINGS),
            "--estimates", write(d / "est.csv", "s1,1.0\nS2,5.0\nzz,3\n"),
            "--weighting", "density"], "est.csv:2: source 'S2' has no ranking"


def case_estimate_repeated(d):
    return ["fuse", "--rankings", write(d / "r.csv", RANKINGS),
            "--estimates", write(d / "est.csv", "source,E\ns1,1.0\ns2,2.0\ns1,5.0\n"),
            "--weighting", "dispersion"], "est.csv:4: source 's1' repeated"


def case_estimate_missing(d):
    return ["fuse", "--rankings", write(d / "r.csv", RANKINGS),
            "--estimates", write(d / "est.csv", "source,E\ns1,1.0\n"),
            "--weighting", "density"], "est.csv: no estimate for source 's2'"


def case_input_not_utf8(d):
    return ["analyze", "--input", write(d / "x.csv", b"value\n1.0\n\xff\xfe\n2.0\n"),
            "--ops", "sma"], "x.csv:3:"


def case_input_is_directory(d):
    (d / "dir.csv").mkdir()
    return ["analyze", "--input", str(d / "dir.csv"), "--ops", "sma"], "dir.csv:"


def case_config_value_wrong_type(d):
    return ["analyze", "--input", write(d / "x.csv", SERIES), "--ops", "sma",
            "--config", write(d / "c.cfg", "# defaults\nwindow=abc\n")], "c.cfg:2:"


def case_config_boolean_misspelled(d):
    return ["analyze", "--input", write(d / "x.csv", SERIES), "--ops", "sma",
            "--config", write(d / "c.cfg", "# defaults\naggregated=ture\n")], "c.cfg:2:"


def case_duplicate_alternative(d):
    rows = "source,alternative,rank\ns1,a,1\ns1,b,2\ns1,a,3\n"
    return ["fuse", "--rankings", write(d / "r.csv", rows)], "r.csv:4:"


def case_rating_repeated(d):
    return ["graph", "--edges", write(d / "e.tsv", EDGES), "--ops", "ioscore",
            "--ratings", write(d / "r.csv", "node,rating\na,1\nb,2\na,50\n")
            ], "r.csv:4: node 'a' repeated"


def case_series_value_nan(d):
    return ["analyze", "--input", write(d / "x.csv", "value\n1\n2\nnan\n3\n"),
            "--ops", "sma"], "x.csv:4:"


def case_series_timestamp_overflow(d):
    return ["analyze", "--input", write(d / "x.csv", "1,5\n1e400,6\n3,7\n"),
            "--ops", "sma"], "x.csv:2:"


def case_template_sample_nan(d):
    (d / "bank").mkdir()
    write(d / "bank" / "t.csv", "1\n2\nnan\n3\n")
    return ["scan", "--input", write(d / "x.csv", SERIES),
            "--templates", str(d / "bank")], "t.csv:3:"


def case_template_sample_overflow(d):
    (d / "bank").mkdir()
    write(d / "bank" / "t.csv", "1e400\n2\n3\n")
    return ["scan", "--input", write(d / "x.csv", SERIES),
            "--templates", str(d / "bank")], "t.csv:1:"


def case_rating_nan(d):
    return ["graph", "--edges", write(d / "e.tsv", EDGES), "--ops", "ioscore",
            "--ratings", write(d / "r.csv", "a,1\nb,nan\nc,3\n")], "r.csv:2:"


def case_rating_overflow(d):
    return ["graph", "--edges", write(d / "e.tsv", EDGES), "--ops", "stats",
            "--ratings", write(d / "r.csv", "node,rating\na,1e400\n")], "r.csv:2:"


def case_rating_negative(d):
    return ["graph", "--edges", write(d / "e.tsv", EDGES), "--ops", "stats",
            "--ratings", write(d / "r.csv", "a,1\nb,-2\nc,3\n")], "r.csv:2:"


def case_estimate_nan(d):
    return ["fuse", "--rankings", write(d / "r.csv", RANKINGS),
            "--estimates", write(d / "est.csv", "s1,nan\ns2,2.0\n"),
            "--weighting", "density"], "est.csv:1:"


def case_estimate_overflow(d):
    return ["fuse", "--rankings", write(d / "r.csv", RANKINGS),
            "--estimates", write(d / "est.csv", "source,E\ns1,1.0\ns2,1e400\n"),
            "--weighting", "dispersion"], "est.csv:3:"


def case_estimate_negative(d):
    return ["fuse", "--rankings", write(d / "r.csv", RANKINGS),
            "--estimates", write(d / "est.csv", "source,E\ns1,-1.0\ns2,2.0\n"),
            "--weighting", "density"], "est.csv:2:"


BREACHES = [case_edge_count_not_integer, case_edge_count_zero,
            case_edge_count_negative_on_line_1, case_template_sample_not_numeric,
            case_estimate_not_numeric, case_estimate_for_unknown_source,
            case_estimate_repeated, case_estimate_missing, case_input_not_utf8,
            case_input_is_directory, case_config_value_wrong_type,
            case_config_boolean_misspelled,
            case_duplicate_alternative, case_rating_repeated, case_series_value_nan,
            case_series_timestamp_overflow, case_template_sample_nan,
            case_template_sample_overflow, case_rating_nan, case_rating_overflow,
            case_rating_negative, case_estimate_nan, case_estimate_overflow,
            case_estimate_negative]


@pytest.mark.parametrize("case", BREACHES, ids=lambda c: c.__name__[5:])
def test_bad_input_exits_2_naming_the_line(tmp_path, case):
    argv, where = case(tmp_path)
    code, err = run(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert len(err.splitlines()) == 1
    assert where in err


# One exit rule for flag values: a value invalid for any input exits 2
# when the flags are parsed, from the command line or a config file; a
# value that does not fit this input exits 3 when its op runs.
# (argv, exit code, the one stderr line or its start); `{F}` are files.
ANALYZE = ["analyze", "--input", "{series}", "--ops"]
FLAG_VALUES = [
    (ANALYZE + ["sma", "--alpha", "2"], 2, "ioscope: argument --alpha: 2 is not in (0, 1]"),
    (ANALYZE + ["sma", "--window", "0"], 2,
     "ioscope: argument --window: 0 is not a positive integer"),
    (ANALYZE + ["sma", "--window", "abc"], 2,
     "ioscope: argument --window: invalid int value: 'abc'"),
    (ANALYZE + ["filter", "--bin", "-3"], 2,
     "ioscope: argument --bin: -3 is not a positive integer"),
    (ANALYZE + ["gabor", "--gabor-width", "-1"], 2,
     "ioscope: argument --gabor-width: -1 is not a finite number > 0"),
    (ANALYZE + ["gabor", "--gabor-width", "inf"], 2,
     "ioscope: argument --gabor-width: inf is not a finite number > 0"),
    (ANALYZE + ["wtmm", "--wavelet", "bogus"], 2,
     "ioscope: argument --wavelet: invalid choice: 'bogus'"),
    (ANALYZE + ["sma", "--config", "{alpha_cfg}"], 2,
     "ioscope: {alpha_cfg}:1: bad value '0' for alpha"),
    (ANALYZE + ["sma", "--config", "{wavelet_cfg}"], 2,
     "ioscope: {wavelet_cfg}:1: wavelet must be one of gaussian-wave, mexican-hat"),
    (ANALYZE + ["sma", "--window", "65"], 3,
     "ioscope: op 'sma': window 65 larger than series length 64"),
    (ANALYZE + ["filter", "--bin", "32"], 3,
     "ioscope: op 'filter': bin index must lie in [1, 31]"),
    (ANALYZE + ["ccf"], 3, "ioscope: op 'ccf': needs --input2"),
    (["scan", "--input", "{series}", "--threshold", "-5"], 2,
     "ioscope: argument --threshold: -5 is not in (0, 1]"),
    (["simulate", "--e0", "100000000000000000000"], 2,
     "ioscope: e0 must be an integer in [1, 2**62)"),
    (["graph", "--edges", "{edges}", "--ops", "ioscore"], 3,
     "ioscope: op 'ioscore': ratings present on fewer than 80% of nodes"),
    (["graph", "--edges", "{no_edges}", "--ops", "stats"], 3,
     "ioscope: op 'stats': graph must have at least one node"),
    (ANALYZE + ["sma", "--window", "5", "--config", "{window_cfg}"], 2,
     "ioscope: {window_cfg}:1: bad value 'abc' for window"),
    (["scan", "--input", "{series}", "--scales", "5:x:1"], 2,
     "ioscope: bad scale range '5:x:1'; want a:b:step"),
    (["scan", "--input", "{series}", "--scales", "2:10:1"], 2,
     "ioscope: bad scale range '2:10:1'"),
    (["scan", "--input", "{series}", "--templates", "{series}"], 2,
     "ioscope: {series} is not a directory"),
    (["scan", "--input", "{series}", "--templates", "{empty_dir}"], 2,
     "ioscope: no template CSV files in {empty_dir}"),
    (["fuse", "--rankings", "{rankings}", "--weighting", "density"], 2,
     "ioscope: weighting needs --estimates"),
    (["fuse"], 2, "ioscope: the following arguments are required: --rankings"),
    (["analyze", "--input", "", "--ops", "sma"], 2, "ioscope: .: Is a directory"),
    (["graph", "--edges", ""], 2, "ioscope: .: Is a directory"),
]


@pytest.mark.parametrize("argv,code,line", FLAG_VALUES,
                         ids=[" ".join(argv) for argv, _, _ in FLAG_VALUES])
def test_flag_value_exit_rule(tmp_path, argv, code, line):
    files = {"series": write(tmp_path / "x.csv", SERIES),
             "edges": write(tmp_path / "e.tsv", EDGES),
             "no_edges": write(tmp_path / "none.tsv", "# no edges\n"),
             "alpha_cfg": write(tmp_path / "a.cfg", "alpha=0\n"),
             "wavelet_cfg": write(tmp_path / "w.cfg", "wavelet=bogus\n"),
             "window_cfg": write(tmp_path / "c.cfg", "window=abc\n"),
             "rankings": write(tmp_path / "r.csv", RANKINGS),
             "empty_dir": str(tmp_path / "empty")}
    (tmp_path / "empty").mkdir()
    got, err = run([a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")])
    assert got == code
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line.format(**files)), err


@pytest.mark.parametrize("value,flag", [("1", True), ("TRUE", True), ("Yes", True),
                                        ("0", False), ("False", False), ("NO", False)])
def test_config_boolean_spellings(tmp_path, value, flag):
    out = tmp_path / "out"
    code, err = run(["analyze", "--input", write(tmp_path / "x.csv", SERIES),
                     "--ops", "sma", "--config",
                     write(tmp_path / "c.cfg", f"aggregated={value}\n"),
                     "--out", str(out)])
    assert code == 0, err
    report = json.loads((out / "report.json").read_text())
    assert report["preprocessing"]["aggregated"] is flag


@pytest.mark.parametrize("e0", ["4611686018427387903", "100000000"])
def test_simulate_large_e0_exits_3_at_once(tmp_path, e0):
    # the exact survival chain would need ~4 e0 energy rows
    tracemalloc.start()
    try:
        code, err = run(["simulate", "--e0", e0, "--ticks", "1",
                         "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        f"ioscope: exact agent chain from e0 = {e0} over"), err
    assert peak < 2 ** 25


@pytest.mark.skipif(resource is None, reason="no resource module")
def test_out_of_memory_exits_3_with_one_line(tmp_path):
    # the child alone runs under a 1 GiB address-space limit, where the
    # per-tick arrays of 2 * 10^8 ticks cannot be allocated
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    done = run_child(["simulate", "--ticks", "200000000", "--out", str(tmp_path / "out")],
                     text=True, preexec_fn=limit, timeout=120)
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ioscope: out of memory: "), lines


# The row reader, pinned through the series format. A line ends at every
# separator str.splitlines knows, and line numbers count blank, '#' and
# header lines.
@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0c", "\u2028"],
                         ids=["lf", "crlf", "cr", "ff", "u2028"])
def test_reader_line_separators(tmp_path, sep):
    path = Path(write(tmp_path / "x.csv", sep.join(["value", "1", "2", "3", ""])))
    assert read(read_series_csv, path).values.tolist() == [1.0, 2.0, 3.0]
    write(path, sep.join(["value", "1", "# note", "", "x", "2"]))
    with pytest.raises(InvalidArgument, match=rf"^{re.escape(str(path))}:5: "):
        read(read_series_csv, path)


def test_reader_skips_blank_and_comment_lines(tmp_path):
    path = Path(write(tmp_path / "x.csv", "value\n\n# c,1\n 4 \n  \n#\n\t5\n#6\n"))
    x = read(read_series_csv, path)
    assert x.values.tolist() == [4.0, 5.0]
    assert x.step == 1.0


@pytest.mark.parametrize("text,lineno", [("1\nvalue\n2\n", 2),
                                         ("# c\nvalue\n1\n2\n", 2),
                                         ("\nvalue\n1\n2\n", 2)])
def test_reader_skips_a_header_on_line_1_only(tmp_path, text, lineno):
    path = Path(write(tmp_path / "x.csv", text))
    with pytest.raises(InvalidArgument) as err:
        read(read_series_csv, path)
    assert str(err.value) == (f"{path}:{lineno}: could not convert string "
                              "to float: 'value'")


@pytest.mark.parametrize("row,message", [
    ("abc", "could not convert string to float: 'abc'"),
    ("nan", "nan is not a finite number"),
    ("-inf", "-inf is not a finite number"),
    ("1e400", "1e400 is not a finite number"),
    ("2,3,4", "want value or timestamp,value"),
    ("", None)])
def test_reader_names_the_bad_line(tmp_path, row, message):
    path = Path(write(tmp_path / "x.csv", f"value\n1\n2\n{row}\n3\n"))
    if message is None:
        assert read(read_series_csv, path).values.tolist() == [1.0, 2.0, 3.0]
        return
    with pytest.raises(InvalidArgument) as err:
        read(read_series_csv, path)
    assert str(err.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("text,message", [
    ("1,1\n2\n", "mixed column counts"),
    ("1\n2,2\n3\n", "mixed column counts"),
    ("value\n1\n", "need at least 2 samples"),
    ("value\n", "need at least 2 samples"),
    ("", "need at least 2 samples"),
    ("0,1\n1,2\n3,3\n", "timestamps not uniformly spaced"),
    ("0,1\n0,2\n", "timestamps not uniformly spaced"),
    ("-1e308,1\n1e308,2\n1.5e308,3\n", "timestamp spacing is not finite")])
def test_reader_file_level_errors(tmp_path, text, message):
    path = Path(write(tmp_path / "x.csv", text))
    with pytest.raises(InvalidArgument) as err:
        read(read_series_csv, path)
    assert str(err.value) == f"{path}: {message}"


def test_reader_bad_line_beats_mixed_columns(tmp_path):
    path = Path(write(tmp_path / "x.csv", "1,1\n2\n3,x\n"))
    with pytest.raises(InvalidArgument, match=r":3: could not convert"):
        read(read_series_csv, path)


# One run per reader; {F} are the files it reads. The second series has
# timestamps and a comment, which the one-pass reader refuses.
READ_ONCE = [
    ["analyze", "--input", "{series}", "--input2", "{stamped}", "--ops", "sma,ccf"],
    ["scan", "--input", "{series}", "--templates", "{bank}", "--scales", "5:9:2"],
    ["graph", "--edges", "{edges}", "--ratings", "{ratings}", "--ops", "stats"],
    ["fuse", "--rankings", "{rankings}", "--estimates", "{estimates}",
     "--weighting", "density"],
]


@pytest.mark.parametrize("argv", READ_ONCE, ids=lambda a: a[0])
def test_each_input_is_read_once(tmp_path, monkeypatch, argv):
    files = fixture_files(tmp_path)
    files["stamped"] = write(tmp_path / "t.csv", "t,value\n# c\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(SERIES.split()[1:])))
    write(tmp_path / "bank" / "a.csv", "0\n1\n3\n1\n0\n")
    write(tmp_path / "bank" / "b.csv", "2\n0\n1\n")
    calls = []
    read_bytes = Path.read_bytes

    def counting(path):
        calls.append(str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    argv = [a.format(**files) for a in argv]
    assert run(argv + ["--out", str(tmp_path / "out")]) == (0, "")
    inputs = [a for a in argv if a in files.values()]
    if "scan" in argv:
        inputs[1:] = [str(tmp_path / "bank" / f) for f in ("a.csv", "b.csv")]
    assert calls == inputs


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
def test_fingerprint_of_a_pipe_hashes_the_bytes_parsed(tmp_path):
    data = SERIES.encode()
    out = tmp_path / "out"
    done = run_child(["analyze", "--input", "/dev/stdin", "--ops", "sma",
                      "--out", str(out)], input=data)
    assert done.returncode == 0, done.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["input_fingerprint"] == hashlib.sha256(data).hexdigest()
    assert len(report["results"]["sma"]["values"]) == 64


def test_reader_timestamps(tmp_path):
    path = Path(write(tmp_path / "s.csv",
                      "timestamp,value\n0.5, 1\n0.75,2\r\n1.0 ,-3e-2\n"))
    x = read(read_series_csv, path)
    assert x.values.tolist() == [1.0, 2.0, -0.03]
    assert x.step == 0.25
    assert x.values.flags.c_contiguous


def test_reader_holds_no_per_row_objects(tmp_path):
    """Reading 2^16 daily counts peaks below 2.5 times the bytes of the
    values: the rows stream into one array, and the file's bytes (about
    three a row here) are the only other thing held."""
    counts = np.random.default_rng(5).poisson(60.0, 2 ** 16)
    path = Path(write(tmp_path / "x.csv",
                      "value\n" + "".join(f"{c}\n" for c in counts)))
    tracemalloc.start()
    try:
        x = read(read_series_csv, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(x.values, counts)
    assert peak < 2.5 * x.values.nbytes, peak / x.values.nbytes


BOM = "\ufeff"


def test_reader_drops_a_byte_order_mark(tmp_path):
    path = Path(write(tmp_path / "x.csv", BOM + "".join(f"{i}\n" for i in range(1, 9))))
    assert read(read_series_csv, path).values.tolist() == list(range(1, 9))


def test_rankings_drop_a_byte_order_mark(tmp_path):
    path = Path(write(tmp_path / "r.csv", BOM + "a,x,1\na,y,2\nb,y,1\nb,x,2\n"))
    assert [r.source for r in read(_read_rankings_csv, path)] == ["a", "b"]


def test_edges_drop_a_byte_order_mark(tmp_path):
    out = tmp_path / "out"
    assert run(["graph", "--edges", write(tmp_path / "e.tsv", BOM + "a\tb\nb\ta\n"),
                "--ops", "hits", "--out", str(out)]) == (0, "")
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["hits"]["out_degree"] == {"a": 1, "b": 1}
    # The fingerprint is still taken over the file's bytes, mark included.
    assert report["input_fingerprint"] == hashlib.sha256(
        (tmp_path / "e.tsv").read_bytes()).hexdigest()


def test_not_utf8_after_a_byte_order_mark_names_the_line(tmp_path):
    path = Path(write(tmp_path / "x.csv", BOM.encode() + b"1\n\xff\n2\n"))
    with pytest.raises(InvalidArgument, match=rf"^{re.escape(str(path))}:2: not UTF-8"):
        read(read_series_csv, path)


def read_outcome(path):
    """read_series_csv's values and step, or its InvalidArgument message."""
    try:
        x = read(read_series_csv, path)
    except InvalidArgument as exc:
        return str(exc)
    return x.values.tolist(), x.step


# Lines of a series file: an optional first line, then numbers only
# (which the one-pass reader takes) or any mix of lines.
NUMBER_LINES = st.sampled_from(["1", " 2.5 ", "-3e-2", "1_0", "7\x0c", "\x0c8",
                                "\x1f9", "\x859", "1e-400"])
FIRST_LINES = st.sampled_from(["", "#", "value", "1,2", "x,y,z", "nan", "\x0cvalue",
                               "value\x0c", BOM + "value", "\x85"])
ANY_LINES = NUMBER_LINES | st.sampled_from(
    ["", "  ", "# 4", "value", "1,2", "x,1", "nan", "inf", "1e400", "\r", "\x0c",
     BOM, BOM + "5"]) | st.text(max_size=4)
SERIES_LINES = st.tuples(st.lists(FIRST_LINES, max_size=1),
                         st.lists(NUMBER_LINES, max_size=8)
                         | st.lists(ANY_LINES, max_size=8)).map(lambda t: t[0] + t[1])


@settings(max_examples=300, deadline=None)
@given(lines=SERIES_LINES, bom=st.booleans(), end=st.sampled_from(["", "\n"]),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_bulk_series_read_matches_the_row_reader(lines, bom, end, newline):
    """A series read in one pass gives what the row reader gives: the
    same values and step, or the same error."""
    text = (BOM if bom else "") + newline.join(lines) + end
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(write(Path(tmp) / "x.csv", text))
        bulk = read_outcome(path)
        with mock.patch("ioscope.cli._bulk_column", return_value=None):
            assert read_outcome(path) == bulk


# Fuzzed file contents: rows of plausible and arbitrary fields in the
# format's separator, arbitrary lines, or arbitrary bytes.
TOKENS = st.sampled_from(["", " ", "#", "0", "1", "2", "-3", "2.5", "1e400",
                          "nan", "-inf", "x", "a b", "é", "s1", "a"])


def contents(sep):
    field = TOKENS | st.text(max_size=5)
    row = st.lists(field, max_size=4).map(sep.join)
    text = st.lists(row | st.text(max_size=15), max_size=10).map("\n".join)
    return text.map(lambda t: t.encode()) | st.binary(max_size=40)


# Config entries: options of the subcommand (plus keys no subcommand
# takes) set to plausible or arbitrary values, then maybe a junk line.
CONFIG_VALUES = (TOKENS | st.integers(min_value=-3, max_value=12).map(str)
                 | st.floats().map(repr) | st.sampled_from(
                     ["morlet", "haar", "saturating", "kemeny", "condorcet",
                      "density", "dispersion", "stats,hits", "ioscore",
                      "5:9:2", "true"]))


def config_text(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    keys = [a.dest for a in sub._actions] + ["nope", "func", "_subparser"]
    entry = st.tuples(st.sampled_from(keys), CONFIG_VALUES).map("=".join)
    return st.tuples(st.lists(entry, max_size=5),
                     st.lists(st.text(max_size=15), max_size=1)).map(
        lambda t: "\n".join(t[0] + t[1]))


# One cheap invocation per input format; `{F}` is the fuzzed file.
INVOCATIONS = {
    "series": ["analyze", "--input", "{F}", "--input2", "{F}", "--ops", "sma,ccf"],
    "edges": ["graph", "--edges", "{F}", "--ratings", "{ratings}", "--ops", "stats"],
    "ratings": ["graph", "--edges", "{edges}", "--ratings", "{F}", "--ops", "ioscore"],
    "rankings": ["fuse", "--rankings", "{F}", "--method", "borda"],
    "estimates": ["fuse", "--rankings", "{rankings}", "--estimates", "{F}",
                  "--weighting", "density"],
    "templates": ["scan", "--input", "{series}", "--templates", "{bank}",
                  "--scales", "5:9:2"],
}
CONFIG_INVOCATIONS = [
    ["analyze", "--input", "{series}", "--ops", "sma"],
    ["scan", "--input", "{series}", "--scales", "5:9:2"],
    ["simulate", "--ticks", "3", "--e0", "3"],
    ["graph", "--edges", "{edges}", "--ops", "stats"],
    ["fuse", "--rankings", "{rankings}", "--estimates", "{estimates}"],
]


def check_contract(argv, d):
    code, err = run(argv + ["--out", str(d / "out")])
    assert code in (0, 2, 3)
    if code:
        assert len(err.splitlines()) == 1, err
    # exit 2 writes no report; a written report lists failed ops exactly
    # when the run exits 3
    report = d / "out" / "report.json"
    if code == 2:
        assert not report.exists()
    elif report.exists():
        assert ("failed_ops" in json.loads(report.read_text())) == (code == 3)
    else:
        assert code == 3


def fixture_files(d):
    (d / "bank").mkdir()
    return {"series": write(d / "s.csv", SERIES), "edges": write(d / "e.tsv", EDGES),
            "ratings": write(d / "r.csv", RATINGS),
            "rankings": write(d / "rk.csv", RANKINGS),
            "estimates": write(d / "est.csv", ESTIMATES), "bank": str(d / "bank")}


@pytest.mark.parametrize("fmt", sorted(INVOCATIONS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fuzzed_input_file(fmt, data):
    content = data.draw(contents("\t" if fmt == "edges" else ","), label="content")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        files = fixture_files(d)
        files["F"] = write(d / "bank" / "t.csv" if fmt == "templates"
                           else d / f"fuzz.{fmt}", content)
        check_contract([a.format(**files) for a in INVOCATIONS[fmt]], d)


@pytest.mark.parametrize("argv", CONFIG_INVOCATIONS, ids=lambda a: a[0])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fuzzed_config_file(argv, data):
    config = data.draw(config_text(argv[0]), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        files = fixture_files(d)
        cfg = write(d / "c.cfg", config)
        check_contract([a.format(**files) for a in argv] + ["--config", cfg], d)
