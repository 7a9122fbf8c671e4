import csv
import io
import json

import pytest

from conftest import clear_model_caches
from dp1 import cli, real_forms, wallcross
from dp1.lattice import pic


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_enumerate_stratum(capsys):
    code, out = run_cli(capsys, "enumerate", "--class", "M-2-split", "--stratum", "4")
    block = json.loads(out)["enumeration"][0]
    assert (block["count"], block["signed_sum"]) == (4, 4)
    for item in block["classes"]:
        alpha = pic(*item["alpha"])
        assert alpha.degree == 2 and alpha.square == 0


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
    table = cli.tables_payload(7)["rows"]
    blocks = [b for b in cli.wallcross_payload("all")["wallcross"] if b["vanishing_roots"]]
    assert len(blocks) == 10
    for block in blocks:
        column = {r["type"]: r["enumerated_value"] for r in table if r["class"] == block["class"]}
        assert block["delta"] == column, block["class"]


def test_verify_fails_on_corrupted_splitting_table(monkeypatch, capsys):
    # B^0 is {-2K} with v = 0, so its key (0, 0) is checked for every root.
    monkeypatch.setitem(wallcross.SPLITTING_TABLE, (0, 0), ())
    code, out = run_cli(capsys, "verify", "--class", "M-4")
    assert code == 1
    failing = [r["name"] for r in json.loads(out)["records"] if not r["passed"]]
    assert failing == ["splitting_table:M-4"]


@pytest.mark.parametrize("argv", [("verify", "--class", "M-4"), ("tables", "4")])
def test_non_integer_depth_cap_is_a_config_error(monkeypatch, capsys, argv):
    monkeypatch.setenv("DP1_MAX_ENUM_DEPTH", "abc")
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "DP1_MAX_ENUM_DEPTH" in err


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert cli.main(["classes", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(target) in err
    assert not target.exists()


def test_verify_scoped_passes_and_roundtrips(capsys):
    code, out = run_cli(capsys, "verify", "--class", "M-4")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload == cli.verify_payload("M-4")
    names = {r["name"] for r in payload["records"]}
    assert f"total_30:M-4" in names


def test_verify_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "--class", "M-1-split")
    _, second = run_cli(capsys, "verify", "--class", "M-1-split")
    assert first == second


def test_verify_deterministic_across_processes():
    # Distinct hash seeds shake out any set-ordering dependence in the report.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dp1

    # The child must import the same dp1, installed or not.
    src = str(Path(dp1.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "dp1.cli", "verify", "--class", "M-1-split"],
            capture_output=True, text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_verify_md_format(capsys):
    code, out = run_cli(capsys, "verify", "--class", "M-1-split", "--format", "md")
    assert code == 0
    assert out.startswith("| name | anchor | provenance | expected | actual | passed |")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, "classes", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text(encoding="utf-8"))["classes"]


# Four pairwise-orthogonal roots with integral half-sum: their saturation is a
# full D4, so they are NOT a valid 4A1 model and the constructor must refuse.
BAD_4A1 = [
    pic(0, 0, 0, 0, 0, 0, 0, 1, -1),
    pic(1, -1, 0, 0, 0, 0, 0, -1, -1),
    pic(2, 0, -1, -1, -1, -1, 0, -1, -1),
    pic(-3, 1, 1, 1, 1, 1, 2, 1, 1),
]


def test_verify_fails_on_corrupted_embedding(fresh_caches, monkeypatch, capsys):
    monkeypatch.setattr(real_forms, "_A1_SEEDS", BAD_4A1)
    clear_model_caches()
    code, out = run_cli(capsys, "verify", "--class", "M-4")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["failed"] >= 1
    failing = [r for r in payload["records"] if not r["passed"]]
    assert any(r["name"] == "class_block:M-4" for r in failing)
    assert any(str(r["actual"]).startswith("error: LatticeError: ") for r in failing)
