"""The golden-output corpus (tests/golden/): every invocation of
``regen.INVOCATIONS`` rerun in process and checked against the manifest.

Where numpy's version and the machine match the manifest's, every output
must match its SHA-256 exactly. Everywhere, the portable fields must
match: exit code, stderr and the files written exactly; JSON keys,
strings, integers and nulls exactly, and its floats to a relative 1e-6;
a CSV's shape, empty-cell count and most digits written in a number
exactly, and its sum of |v|, min and max to a relative 1e-6; any other
file byte for byte.
"""

import json
import math

import numpy as np
import pytest

from golden import regen

MANIFEST = json.loads(regen.MANIFEST.read_text())
SAME_PLATFORM = (MANIFEST["numpy"] == np.__version__
                 and MANIFEST["machine"] == regen.machine())
REL = 1e-6


def assert_close(got, want, where="$"):
    """got equals want to REL in its floats, and exactly elsewhere."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=1e-12), (where, got, want)
    elif isinstance(want, dict) and isinstance(got, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("name", list(regen.INVOCATIONS))
def test_invocation(name, tmp_path):
    want = MANIFEST["invocations"][name]
    assert want["argv"] == regen.INVOCATIONS[name], "stale manifest: run regen.py"
    out_dir = tmp_path / "out"
    got = regen.record(want["argv"], out_dir)
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert got["artifacts"] == want["artifacts"]
    for out, digest in want["outputs"].items():
        mine = got["outputs"][out]
        if SAME_PLATFORM or not out.endswith((".json", ".csv")):
            assert mine["sha256"] == digest["sha256"], out
        if out.endswith(".json"):
            expected = json.loads(regen.EXPECTED.joinpath(name, out).read_bytes())
            assert_close(json.loads(regen.blanked(out_dir / out)), expected, out)
        elif out.endswith(".csv"):
            assert_close(mine, digest | {"sha256": mine["sha256"]}, out)


def test_manifest_lists_every_invocation():
    assert list(MANIFEST["invocations"]) == list(regen.INVOCATIONS)


def test_expected_files_are_the_manifest_digests():
    for name, entry in MANIFEST["invocations"].items():
        for out, digest in entry["outputs"].items():
            if out.endswith(".json"):
                data = regen.EXPECTED.joinpath(name, out).read_bytes()
                assert regen.sha256(data).hexdigest() == digest["sha256"], (name, out)


def test_corpus_covers_every_op_wavelet_and_subcommand():
    argvs = list(regen.INVOCATIONS.values())
    wavelets = {a[a.index("--wavelet") + 1] if "--wavelet" in a else "mexican-hat"
                for a in argvs if a[0] == "analyze"
                and a[a.index("--ops") + 1] == regen.ALL_OPS}
    assert wavelets == set(regen.cli.wavelet.WAVELETS)
    graph_ops = {op for a in argvs if a[0] == "graph"
                 for op in a[a.index("--ops") + 1].split(",")}
    assert graph_ops == set(regen.cli.GRAPH_OPS)
    exits = {e["exit"] for e in MANIFEST["invocations"].values()}
    assert exits == {0, 2, 3}
    assert {a[0] for a in argvs} == {"analyze", "scan", "simulate", "graph", "fuse"}
