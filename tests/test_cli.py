import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest

import dp1
from conftest import break_the_enumerator, clear_model_caches, corrupt_4a1_embedding, stratum
from dp1 import cli, counting, golden, real_forms, report, wallcross
from dp1.lattice import K, Columns, PicClass, pic

BENCH_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def child_env(**extra) -> dict:
    """Environment for a child interpreter that imports this same dp1, installed or not."""
    src = str(Path(dp1.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_classes_json(capsys):
    code, out = run_cli(capsys, "classes")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 11
    assert len(payload["pairs"]) == 7
    by_id = {c["id"]: c for c in payload["classes"]}
    assert by_id["M-connected"]["lambda_type"] == "E8"
    assert by_id["M-split"]["rank"] == 0


def test_classes_csv(capsys):
    code, out = run_cli(capsys, "classes", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "id"
    assert len(rows) == 12


def test_tables_2_json(capsys):
    code, out = run_cli(capsys, "tables", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["level"], r["count"], r["qhat"]) for r in rows] == [
        (0, 56, 2), (1, 112, 0), (2, 56, 2), (3, 16, 0)]


def test_tables_4_and_5_match_frozen_rows(capsys):
    from dp1 import golden

    for n, frozen in ((4, golden.TABLE4), (5, golden.TABLE5)):
        _, out = run_cli(capsys, "tables", str(n))
        rows = json.loads(out)["rows"]
        got = sorted((r["level"], tuple(r["signature"]), r.get("pair_coeff"),
                      r["count"], r["qhat"]) for r in rows)
        assert got == sorted(frozen)
        assert all(r["anchor"].startswith(f"table{n}/") for r in rows)


def test_tables_6_grid(capsys):
    code, out = run_cli(capsys, "tables", "6")
    rows = json.loads(out)["rows"]
    assert len(rows) == 36
    col_m = [r["value"] for r in rows if r["column"] == "M"]
    assert col_m == [-128, 0, 112, 0, 46, 30]
    provs = {r["row"]: r["provenance"] for r in rows if r["column"] == "M"}
    assert provs["c0_plus"] == "cited-formula"
    assert provs["c4_plus"] == "enumerated"


def test_tables_7_rows(capsys):
    code, out = run_cli(capsys, "tables", "7")
    rows = json.loads(out)["rows"]
    assert len(rows) == 55  # 5 rows per class
    e8 = [r for r in rows if r["class"] == "M-connected"]
    assert [r["formula_value"] for r in e8] == [0, 28, -28, 0, -16]
    assert [r["enumerated_value"] for r in e8] == [0, 28, -28, 0, -16]


def test_tables_7_d22_is_cited_in_every_class():
    # d22 = 2(chi - 1) is the cited Euler input, also where no vanishing root
    # gives the other four rows an enumerated value.  A row without an enumerated
    # value (all of M-split's) is the cited formula alone.
    rows = cli.tables_output(7).payload["rows"]
    assert {r["class"]: r["provenance"] for r in rows if r["type"] == "2,2"} == {
        c.id: "cited-formula" for c in real_forms.deformation_classes()}
    assert {r["provenance"] for r in rows if r["enumerated_value"] is None} == {"cited-formula"}


def test_enumerate_stratum(capsys):
    code, out = run_cli(capsys, "enumerate", "--class", "M-2-split", "--stratum", "4")
    block = json.loads(out)["enumeration"][0]
    assert (block["count"], block["signed_sum"]) == (4, 4)
    for item in block["classes"]:
        alpha = pic(*item["alpha"])
        assert -alpha.dot(K) == 2 and alpha.square == 0


def test_enumerate_rejects_unknown_class(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--class", "M-9"])
    assert exc.value.code == 2


def test_wallcross_payload(capsys):
    code, out = run_cli(capsys, "wallcross", "--class", "M-4")
    block = json.loads(out)["wallcross"][0]
    assert block["vanishing_roots"] == 8
    assert block["delta"] == {"4,1": 0, "4,2": 12, "2,0": -12, "2,1": 0, "2,2": 0}
    assert block["weighted_balance"] == 12
    assert block["cited"] == ["d22"]


def test_wallcross_deltas_match_table_7():
    table = cli.tables_output(7).payload["rows"]
    blocks = [b for b in cli.wallcross_output("all").payload["wallcross"] if b["vanishing_roots"]]
    assert len(blocks) == 10
    for block in blocks:
        column = {r["type"]: r["enumerated_value"] for r in table if r["class"] == block["class"]}
        assert block["delta"] == column, block["class"]


def test_verify_fails_on_corrupted_splitting_table(monkeypatch, capsys):
    # B^0 is {-2K} with v = 0, so its key (0, 0) occurs at every root.  Only the
    # splitting_table record reads the table: the delta_table records stay green.
    monkeypatch.setitem(golden.SPLITTING_TABLE, (0, 0), ())
    code, out = run_cli(capsys, "verify", "--class", "M-connected")
    assert code == 1
    failing = [r["name"] for r in json.loads(out)["records"] if not r["passed"]]
    assert failing == ["splitting_table"]


def test_a_raising_enumerator_in_verify_fails_records_and_keeps_the_report(fresh_caches,
                                                                            monkeypatch, capsys):
    green = [r["name"] for r in cli.verify_output("M-4").payload["records"]]
    break_the_enumerator(monkeypatch)
    clear_model_caches()
    code, out = run_cli(capsys, "verify", "--class", "M-4")
    assert code == 1
    records = json.loads(out)["records"]
    assert [r["name"] for r in records] == green
    failing = [r for r in records if not r["passed"]]
    assert failing
    assert all(r["actual"].startswith("error: LatticeError: ") for r in failing)


def test_table7_formulas_have_one_source(monkeypatch, capsys):
    # Perturb the "4,2" formula: verify fails exactly the delta_table record of each
    # class with a vanishing root, and tables 7 prints the perturbed formula value.
    perturbed = tuple((label, sig, (lambda r, rd: 4 * (r - 1) + 1) if label == "4,2" else f)
                      for label, sig, f in golden.TABLE7)
    monkeypatch.setattr(golden, "TABLE7", perturbed)
    code, out = run_cli(capsys, "verify")
    assert code == 1
    failing = [r["name"] for r in json.loads(out)["records"] if not r["passed"]]
    with_roots = [c.id for c in real_forms.deformation_classes() if wallcross.vanishing_roots(c)]
    assert len(with_roots) == 10
    assert sorted(failing) == sorted(f"delta_table:{cid}" for cid in with_roots)
    e8 = {r["type"]: r["formula_value"] for r in cli.tables_output(7).payload["rows"]
          if r["class"] == "M-connected"}
    assert e8 == {"4,1": 0, "4,2": 29, "2,0": -28, "2,1": 0, "2,2": -16}


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert cli.main(["classes", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(target) in err
    assert not target.exists()


def test_empty_out_path_is_a_config_error(capsys, monkeypatch):
    # An empty --out names no file: it is refused before anything is built, not
    # taken to mean stdout.
    def unbuilt(*args):
        raise AssertionError("a builder ran")

    monkeypatch.setattr(cli, "classes_output", unbuilt)
    monkeypatch.setattr(report, "build_records", unbuilt)
    for command in ("classes", "verify"):
        assert cli.main([command, "--out", ""]) == 2
        assert capsys.readouterr() == ("", "dp1: error: --out path is empty\n")


def _unwritable_stdout_error(**popen) -> str:
    """The stderr of `dp1 classes` run in a child whose stdout cannot be written;
    the child must exit 2."""
    proc = subprocess.run([sys.executable, "-m", "dp1.cli", "classes"], stderr=subprocess.PIPE,
                          text=True, env=child_env(), **popen)
    assert proc.returncode == 2, proc.stderr
    return proc.stderr


def test_closed_stdout_is_a_config_error():
    # A child started with descriptor 1 closed has sys.stdout None.
    err = _unwritable_stdout_error(stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert err.count("\n") == 1 and err.startswith("dp1: error: cannot write stdout")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_config_error():
    with open("/dev/full", "w") as full:
        err = _unwritable_stdout_error(stdout=full)
    assert err == "dp1: error: cannot write stdout: No space left on device\n"


def test_verbose_adds_only_the_verify_summary_on_stderr(capsys):
    assert cli.main(["verify", "--class", "M-4"]) == 0
    plain = capsys.readouterr()
    assert cli.main(["-v", "verify", "--class", "M-4"]) == 0
    verbose = capsys.readouterr()
    assert verbose.err == "verify: 16 records, 0 failed\n"
    assert verbose.out == plain.out and plain.err == ""
    assert cli.main(["--verbose", "classes"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_scoped_passes_and_roundtrips(capsys):
    code, out = run_cli(capsys, "verify", "--class", "M-4")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload == cli.verify_output("M-4").payload
    names = {r["name"] for r in payload["records"]}
    assert f"total_30:M-4" in names


def test_verify_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "--class", "M-1-split")
    _, second = run_cli(capsys, "verify", "--class", "M-1-split")
    assert first == second


def test_verify_deterministic_across_processes():
    # Distinct hash seeds shake out any set-ordering dependence in the report.
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "dp1.cli", "verify", "--class", "M-1-split"],
            capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed), check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_bench_tracer_finds_every_layer(capsys):
    # The benchmark's per-layer figures come from bench/tracer.py, which rebinds every
    # reference to each layer it names; a layer it cannot find or a call it misses
    # would silently drop spans.
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    proc = subprocess.run([sys.executable, str(BENCH_TRACER), "tables", "3"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    _, plain = run_cli(capsys, "tables", "3")
    assert doc["exit"] == 0 and doc["stdout"] == plain
    assert doc["names"] == [f"{module}.{path}" for module, path in tracer.LAYERS]
    layer = doc["names"].index("counting.classify_levels")
    assert any(span[0] == layer for span in doc["spans"])


def test_verify_md_format(capsys):
    code, out = run_cli(capsys, "verify", "--class", "M-1-split", "--format", "md")
    assert code == 0
    assert out.startswith("| name | anchor | provenance | expected | actual | passed |")


def test_md_escapes_a_bar_inside_a_cell(fresh_caches, monkeypatch, capsys):
    # Spoil E8's B^4 as test_a_lane_beyond_the_cauchy_schwarz_bound_raises does: the
    # failed records read "... have |v.E| > 2 for ...", and every row keeps 6 cells.
    e8 = real_forms.get_class("M-connected")
    root = wallcross.vanishing_roots(e8)[0]
    u = next(PicClass(v) for v in counting.b_classes(e8, 1).vs if PicClass(v).dot(root) == 1)
    wallcross.q_index_cached(e8.id)  # the reflection facts, before the stratum is spoiled
    good = wallcross.b_classes

    def spoiled(c, k):
        s = good(c, k)
        return stratum(k, s.vs + ((3 * u).coeffs,), (*s.qs, 0)) if k == 2 else s

    monkeypatch.setattr(wallcross, "b_classes", spoiled)
    code, out = run_cli(capsys, "verify", "--format", "md")
    assert code == 1 and "\\|v.E\\| > 2" in out
    for line in out.splitlines():
        first, *cells, last = re.split(r"(?<!\\)\|", line)
        assert (first, last, len(cells)) == ("", "", 6), line


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, "classes", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text(encoding="utf-8"))["classes"]


def test_verify_fails_on_corrupted_embedding(fresh_caches, monkeypatch, capsys):
    corrupt_4a1_embedding(monkeypatch)
    clear_model_caches()
    code, out = run_cli(capsys, "verify", "--class", "M-4")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"] == {"total": 16, "passed": 2, "failed": 14}
    assert [r["name"] for r in payload["records"] if r["passed"]] == [
        "table6:M-4:c0_plus", "table6:M-4:c0_minus"]
    failing = [r for r in payload["records"] if not r["passed"]]
    assert not any(r["name"].endswith("_block") for r in failing)
    assert any(str(r["actual"]).startswith("error: LatticeError: ") for r in failing)


def test_scoped_records_equal_the_filtered_full_build():
    # The scope rule: a scoped run holds exactly the records whose classes name the id.
    full = report.build_records("all")
    for c in real_forms.deformation_classes():
        assert report.build_records(c.id) == [r for r in full if c.id in r.classes], c.id


def test_scoped_verify_skips_the_dual_wall_crossing(monkeypatch, capsys):
    calls = []
    kernel = wallcross.delta_table

    def counted(c, root):
        calls.append(c.id)
        return kernel(c, root)

    monkeypatch.setattr(wallcross, "delta_table", counted)
    code, _ = run_cli(capsys, "verify", "--class", "M-split")
    assert code == 0 and calls == []
    run_cli(capsys, "verify", "--class", "M-4")
    assert calls == ["M-4"] * 8


# sha256 of stdout for each argv, taken from the release before the quadratic
# function became a twist on simple roots; the two verify pins were re-taken when
# the records repeating another record's comparison were deleted, and again when
# the records that another record or a constructor check already decides were
# deleted; the scoped pin was re-taken once more when each class's structure
# records joined its scoped run.  Both were re-taken again when the 22 records
# that other records decide were deleted and the closure and alpha properties
# stopped sampling, and when the ten per-class splitting records became one.
# The full verify pin alone was re-taken when the seven property records that
# other records or arguments decide left verify.  The tables 7 pin was re-taken
# when M-split's 2,2 row became cited-formula like every other class's (it has no
# vanishing root, and had fallen back to enumerated), and again when M-split's other
# four rows, with no enumerated value, became cited-formula too.  Any drift in the
# bytes fails here.
STDOUT_SHA256 = {
    ("classes",): "9bf77071bd9d0765f42fc2f2fb43bb2b0456997263f0861b11ae34dd277e42de",
    ("enumerate", "--class", "all"):
        "3f241ea73da25c9231f7d7f9056585ccd42326eb899a0c45ff9c8ae8eeaaed6e",
    ("tables", "2"): "ed2195b6e918eadf18ef748159b5e6b881945e1896cb059bde8ad5377f20472c",
    ("tables", "3"): "a25701b0dec62e93f9f5d432fc7f058f8376c9b40cc0b05cb29ea746d813c2c4",
    ("tables", "4"): "26c6488172fe24cb936087592fe5bc91ed98338f1d6a64d2b6d6e7bb757319b7",
    ("tables", "5"): "c9b642844f532ab88f83cddaccc0a127b3990d8d7a9646bf3f99382fcbcfb5fb",
    ("tables", "6"): "8ce4412b247c4bc295cdb23f5dad2aec4f2b170bab500247502c4fd7a2c05e90",
    ("tables", "7"): "ff2eaa8f38f46b4f0f1e74b242d224d869ba5f2ce58ff2d9f0d770eb3026b154",
    ("wallcross", "--class", "all"):
        "9cf222054ed317051655c2adde92ff24c4ef327dec4638da083b7bc94eb007d8",
    ("verify",): "12592d9737bf19292c25ff0ea046d6072cf354e528d57c22dcc59e523c79470d",
    ("verify", "--class", "M-4"):
        "720b034e75340f73f3bfa30c00d9b136a83d447fe1d7ad9659610283ec973348",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_is_byte_identical(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[argv]


# sha256 of stdout under --format csv and --format md, taken when the flat tables
# were still built by a second pass over the JSON payload; the two tables 7 pins
# were re-taken with the STDOUT_SHA256 one, both times.  The empty M-split B^2
# prints a header and no rows.  The two enumerate --class all pins were taken
# before the strata became columns and uniform JSON rows one template.
FLAT_ARGVS = [("classes",), ("enumerate", "--class", "M-4"),
              ("enumerate", "--class", "M-split", "--stratum", "2"),
              *(("tables", str(n)) for n in range(2, 8)),
              ("verify", "--class", "M-4"), ("wallcross", "--class", "all"),
              ("enumerate", "--class", "all")]
FLAT_SHA256 = dict(zip(
    [(*argv, "--format", fmt) for fmt in ("csv", "md") for argv in FLAT_ARGVS], [
        "b00fc71592dd9005dbdd0412298783e5c766fc3c70a9169ddae31df87d269e04",
        "2d40276ca781392b1fe909cc7a32a0444f58032ffbf1eb2bfcc42623871172ac",
        "4074c1570f0a98978ecd9ce26c3e768a71f126075b5ff0da9d22e8f30dd4823f",
        "3808a6ba943d21e334abcf5ca315671abe8788b87750b5c15ea75cef5b5972b7",
        "9c9ab173d710d228784376d9dd89cab789b0833fa719baeab1898143f60a045e",
        "2ecfc598bcf224adcfaf67256524900b711b2654e9a77a125aa71a0e6f04baca",
        "09e6ae7270d02d672cec7cd75c6df4c9a015c5b2d03b6ca6c0e64f56c7227321",
        "1c205caa405bb1f96c5730250919f136cb4133110eda5a3630b72e0879e82cad",
        "cf88f380670a3b623c6590bcf69c20befe596955ad9ddb671adfbb27013e2d09",
        "58002ef6a8d3148f2f4036cecc2178435f2702ebc87363f339dccb39b9f8b0bd",
        "0eb078051bfb5aee74c879ac23eb0a91272acc738f568d81b8cb0c38381593ea",
        "26da9924649513ca6a5a35f890665ab05f22f59427c9f0d8e75ee6d7a8df871d",
        "fd3f02eb48558db1a167f6d9593eed3552ff014702e5a0fea016c80c03711eca",
        "b5cf76d14413d09bd7d9c64c09f4b4163888e9bd59e6a106bba0226de9ccb194",
        "3819c5247da1800bf0623ffe60a81b197bfecae5f8bdc03075789711477a670e",
        "3906722156cf51e18f089c80df422a31fee76483f1ddd02397b0adfe06caffa9",
        "d524d0e6fd88b125b270c169b5939961d1e6cb1b6905a914197cc9e384338ef6",
        "a7c05770eaf464df0868b64bf0f8dfb621e142cd07f7f3dc917a05c93ff75516",
        "3ee7df95e998e2705cdc10e2ae939b614d88ca72a9d63b0876c5ed2f9e6e9e05",
        "96bf36ed5279b26120270ddb5862e45bdcc14ed5ac74eeba242ec856f3e7c19d",
        "400b37e4786d9ea36b4602e1a6373e696d4a39999619f3b720d3f7c7009aa9b8",
        "da2c07b20cf4b965266dc41f297d12722f5d5a153dfc15b6c2388778ba7c6eda",
        "fb3e02d832cbd39dd395e2b7041ff235a7792f11daaff8b14a0c33dda4917dd1",
        "a89da48e980f05151968927e8932f26c4daa27c639f9944ede076098a167d505",
    ]))


@pytest.mark.parametrize("argv", list(FLAT_SHA256), ids=" ".join)
def test_flat_formats_are_byte_identical(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FLAT_SHA256[argv]


class _Pair(NamedTuple):
    count: int
    name: str


# Payloads where a hand-written writer could part from json: empty containers,
# tuples and named tuples as lists, bools beside ints, None, and strings to escape.
# From edge12 on, lists of dict rows, uniform or not: the recursion writes every
# one of them, since only a `cli.Lanes` table is written by a template.
JSON_EDGES = [{}, [], (), {"a": {}, "b": [], "c": (), "d": [[], {}, [()]]}, _Pair(-2, "x"),
              [1, True, 0, -3], [False], None, True, -7, {"n": None, "i": -12, "t": (True, 5)},
              {"s": 'caf\u00e9 "q" \\ back\nline', "\u00fc\u00df": ["\u2192", "\t", ""]},
              [{"alpha": [6, -2, 0], "v": [0, 1, -1], "qhat": 2}, {"alpha": [1, 2, 3], "v": [4, 5, 6], "qhat": 0}],
              [{"a": 1, "b": [1, 2]}, {"a": True, "b": [3, 4]}],
              [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3, True]}],
              [{"a": 1, "b": [1]}, {"a": "x", "b": [2]}],
              [{"a": 1, "b": [1]}, {"a": 2, "b": [None]}],
              [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
              [{"a": [1, 2]}, {"a": [1, 2, 3]}],
              [{"a": [], "b": 1}, {"a": [], "b": 2}],
              [{"a": [1], "b": 1}, {"a": [], "b": 2}],
              [{"t": (1, 2), "u": 3}, {"t": (4, 5), "u": 6}],
              [{"d20%": 5, "%d": [1, 2], "100%s": -1}, {"d20%": 0, "%d": [3, 4], "100%s": 7}],
              [{"a": {"b": 1}}, {"a": {"b": 2}}],
              [{"a": 1, "b": [2, 3]}],
              [{"a": -10 ** 30, "b": [-2 ** 63, 2 ** 64]}, {"a": -1, "b": [0, -12345678901234567890]}],
              [{"a": 1}, {"a": 1.5}], [{"a": 1}, {"a": 1, "b": 2}], [{"a": 1}, [1]], [{}, {}],
              {"blocks": [{"rows": [{"x": [1, -1]}, {"x": [2, -2]}], "n": 2}]}]

# Lane tables where the template could part from json: no rows, scalar fields
# alone, a key to escape or holding %, ints past a byte, and a table in a dict.
LANE_EDGES = [cli.Lanes((("a", 2), ("b", 0)), [b"", b"", b""]),
              cli.Lanes((("n", 0),), [(0, -1, 7)]),
              cli.Lanes((("d20%", 1), ("%d", 0), ("\u00fc\"", 2)), [(1, -2), (3, 4), (-10 ** 30, 0), (2 ** 64, 5)]),
              {"rows": cli.Lanes((("x", 3), ("q", 0)), [(1,), (-1,), (0,), (2,)]), "n": 1}]

# The enumerate builders cover every block shape: rank-0 B^0 (one row, M-split),
# M-split's empty B^2 and B^4, and E8's 2,160-row B^4.
JSON_BUILDERS = {
    "classes": cli.classes_output,
    "enumerate --class M-4": partial(cli.enumerate_output, "M-4", None),
    "enumerate --class M-split": partial(cli.enumerate_output, "M-split", None),
    "enumerate --class all": partial(cli.enumerate_output, "all", None),
    **{f"tables {n}": partial(cli.tables_output, n) for n in range(2, 8)},
    "verify --class M-4": partial(cli.verify_output, "M-4"),
    "wallcross": partial(cli.wallcross_output, "all"),
}


def _plain(payload):
    # The payload with each lane table as the list of dicts it stands for.
    if type(payload) is cli.Lanes:
        return list(payload.dicts())
    if isinstance(payload, dict):
        return {key: _plain(value) for key, value in payload.items()}
    return [_plain(value) for value in payload] if type(payload) in (list, tuple) else payload


def _assert_json_dumps(payload):
    want = json.dumps(_plain(payload), indent=2, ensure_ascii=False) + "\n"
    assert cli.render(cli.Output(payload, [], []), "json") == want


@pytest.mark.parametrize("payload", JSON_EDGES, ids=[f"edge{i}" for i in range(len(JSON_EDGES))])
def test_json_of_edge_payloads_is_indented_json_dumps(payload):
    _assert_json_dumps(payload)


@pytest.mark.parametrize("payload", LANE_EDGES, ids=[f"lanes{i}" for i in range(len(LANE_EDGES))])
def test_json_of_lane_tables_is_indented_json_dumps_of_their_dicts(payload):
    _assert_json_dumps(payload)


def test_lane_tables_read_the_rows_of_the_strata():
    # Each block's table is alpha, v and q of its stratum, row by row in search order.
    for block in cli.enumerate_output("all", None).payload["enumeration"]:
        st = counting.b_classes(real_forms.get_class(block["class"]), block["stratum"] // 2)
        assert list(block["classes"].dicts()) == [
            {"alpha": list(alpha), "v": list(v), "qhat": q}
            for alpha, v, q in zip(counting.alpha_columns(st).rows(), st.vs, st.qs)]


@pytest.mark.parametrize("name", list(JSON_BUILDERS))
def test_json_of_each_builder_is_indented_json_dumps(name):
    _assert_json_dumps(JSON_BUILDERS[name]().payload)


def test_render_writes_each_list_of_uniform_rows_in_one_call(monkeypatch):
    # The 3,859 stratum items are (alpha, v, qhat) rows of exact ints: each block's
    # table is one template, so a silent fallback to the per-value recursion shows here.
    calls = []
    write = cli._write_json

    def counted(obj, indent, parts):
        calls.append(indent)
        return write(obj, indent, parts)

    out = cli.enumerate_output("all", None)
    monkeypatch.setattr(cli, "_write_json", counted)
    cli.render(out, "json")
    assert 0 < len(calls) < 500


def test_enumerate_builds_no_class_per_stratum_vector(fresh_caches, monkeypatch):
    # The strata are plain columns: a PicClass is built for the lattice bases and
    # roots, not for each of the 3,859 stratum vectors (B^0 included) or their alphas.
    built = []
    new = PicClass.__new__

    def counted(cls, coeffs):
        built.append(coeffs)
        return new(cls, coeffs)

    monkeypatch.setattr(PicClass, "__new__", counted)
    out = cli.enumerate_output("all", None)
    assert sum(b["count"] for b in out.payload["enumeration"]) == 3859
    assert 0 < len(built) < 1000


def test_enumerate_json_reads_no_rows_off_the_strata(monkeypatch):
    # With the strata built, the JSON is written from their packed lanes: no stratum
    # is read out as row tuples.
    cli.enumerate_output("all", None)
    calls = []
    rows = Columns.rows

    def counted(self):
        calls.append(self.n)
        return rows(self)

    monkeypatch.setattr(Columns, "rows", counted)
    assert hashlib.sha256(cli.render(cli.enumerate_output("all", None), "json").encode()).hexdigest() \
        == STDOUT_SHA256[("enumerate", "--class", "all")]
    assert calls == []
