"""Input contract of the CLI: every input file ends in exit 0, 2 or 3,
and a failure prints one stderr line; a bad row names path:lineno."""

import argparse
import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioscope.cli import build_parser, main

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
             "wavelet_cfg": write(tmp_path / "w.cfg", "wavelet=bogus\n")}
    got, err = run([a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")])
    assert got == code
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line.format(**files)), err


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
