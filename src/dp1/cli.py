"""Command-line front end: enumerations, table regeneration, and verification reports.

Exit codes: 0 all checks passed, 1 at least one failed record, 2 usage or
config error (bad arguments, a non-integer DP1_MAX_ENUM_DEPTH, an unwritable
--out path).
Output is deterministic for a fixed invocation; JSON uses lower_snake_case keys
and unquoted integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import counting, golden, real_forms, report, wallcross
from .lattice import ENUM_DEPTH_ENV

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

FORMATS = ("json", "csv", "md")


# -- payload builders ---------------------------------------------------------


def classes_payload() -> dict:
    rows = []
    for c in real_forms.deformation_classes():
        rows.append({
            "id": c.id,
            "topology": c.topology,
            "smith_type": c.smith_type,
            "lambda_type": c.lambda_type,
            "rank": c.rank,
            "euler_char": c.euler_char,
            "bertini_dual": c.bertini_dual_id,
            "qhat_model": c.qhat_model,
        })
    pairs = [[a.id, b.id] for a, b in real_forms.bertini_pairs()]
    return {"classes": rows, "pairs": pairs}


def enumerate_payload(class_id: str, stratum: int | None) -> dict:
    strata = (0, 2, 4) if stratum is None else (stratum,)
    ids = [c.id for c in real_forms.deformation_classes()] if class_id == "all" else [class_id]
    blocks = []
    for cid in ids:
        c = real_forms.get_class(cid)
        for s in strata:
            bs = counting.b_classes(c, s // 2)
            blocks.append({
                "class": cid,
                "stratum": s,
                "count": len(bs),
                "signed_sum": sum(counting.sign_of(b.qhat) for b in bs),
                "classes": [{"alpha": list(b.alpha.coeffs), "v": list(b.v.coeffs),
                             "qhat": b.qhat} for b in bs],
            })
    return {"enumeration": blocks}


def _row_dict(n: int, r: counting.TableRow) -> dict:
    d = {"level": r.level, "signature": list(r.signature), "count": r.count,
         "qhat": r.qhat, "provenance": "enumerated",
         "anchor": f"table{n}/level{r.level}"}
    if r.pair_coeff is not None:
        d["pair_coeff"] = r.pair_coeff
    if r.bilevel is not None:
        d["bilevel"] = list(r.bilevel)
    return d


def tables_payload(n: int) -> dict:
    e8 = real_forms.get_class("M-connected")
    e7 = real_forms.get_class("M-1-connected")
    if n == 2:
        rows = [_row_dict(n, r) for r in counting.classify_roots(e8)]
    elif n == 3:
        rows = [_row_dict(n, r) for r in counting.classify_levels(e8, 1)]
    elif n == 4:
        rows = [_row_dict(n, r) for r in counting.classify_levels(e8, 2)]
    elif n == 5:
        rows = [_row_dict(n, r) for r in counting.classify_levels(e7, 2)]
    elif n == 6:
        rows = []
        for col in golden.TABLE6_COLUMNS:
            plus, minus = (real_forms.get_class(i) for i in golden.TABLE6_PAIRS[col])
            vals = (counting.c2_total(plus), counting.c2_total(minus),
                    counting.c4_total(plus), counting.c4_total(minus),
                    counting.c0_total(plus), counting.c0_total(minus))
            for name, v in zip(golden.TABLE6_ROWS, vals):
                prov = "cited-formula" if name.startswith(("c0", "c2")) else "enumerated"
                rows.append({"column": col, "row": name, "value": v,
                             "provenance": prov, "anchor": f"table6/{col}/{name}"})
    elif n == 7:
        rows = []
        for c in real_forms.deformation_classes():
            roots = wallcross.vanishing_roots(c)
            expected = wallcross.delta_expected(c)
            labels = [t[0] for t in golden.TABLE7]
            signatures = [t[1] for t in golden.TABLE7]
            if roots:
                dt = wallcross.delta_table(c, roots[0]).as_tuple()
                prov = ["enumerated"] * 4 + ["cited-formula"]
            else:
                dt = (None,) * 5
                prov = ["enumerated"] * 5
            for label, sig, want, got, pv in zip(labels, signatures, expected, dt, prov):
                rows.append({"class": c.id, "type": label, "signature": sig,
                             "formula_value": want, "enumerated_value": got,
                             "provenance": pv, "anchor": f"table7/{c.id}/{label}"})
    else:
        raise ValueError(f"no table {n}")
    return {"table": n, "rows": rows}


def verify_payload(scope: str) -> dict:
    records = report.build_records(scope)
    return {
        "scope": scope,
        "summary": report.summarize(records),
        "records": [{
            "name": r.name, "anchor": r.anchor, "provenance": r.provenance,
            "expected": r.expected, "actual": r.actual, "passed": r.passed,
            "classes": list(r.classes),
        } for r in records],
    }


def wallcross_payload(scope: str) -> dict:
    ids = [c.id for c in real_forms.deformation_classes()] if scope == "all" else [scope]
    blocks = []
    for cid in ids:
        c = real_forms.get_class(cid)
        roots = wallcross.vanishing_roots(c)
        block = {"class": cid, "rank": c.rank, "vanishing_roots": len(roots)}
        if roots:
            dt = wallcross.delta_table(c, roots[0])
            block.update({
                "orth_root_sum": dt.orth,
                "delta": {"4,1": dt.d41, "4,2": dt.d42, "2,0": dt.d20,
                          "2,1": dt.d21, "2,2": dt.d22},
                "cited": list(dt.cited),
                "weighted_balance": dt.balance,
            })
        blocks.append(block)
    return {"wallcross": blocks}


# -- rendering ----------------------------------------------------------------


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _cell(v) -> str:
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v, separators=(",", ":"))
    return "" if v is None else str(v)


def _md_table(header: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def _flatten(payload: dict) -> tuple[list[str], list[list]]:
    if "classes" in payload and "pairs" in payload:
        header = ["id", "topology", "smith_type", "lambda_type", "rank",
                  "euler_char", "bertini_dual", "qhat_model"]
        return header, [[c[h] for h in header] for c in payload["classes"]]
    if "enumeration" in payload:
        header = ["class", "stratum", "alpha", "v", "qhat"]
        rows = []
        for block in payload["enumeration"]:
            for item in block["classes"]:
                rows.append([block["class"], block["stratum"],
                             _cell(item["alpha"]), _cell(item["v"]), item["qhat"]])
        return header, rows
    if "records" in payload:
        header = ["name", "anchor", "provenance", "expected", "actual", "passed"]
        return header, [[r["name"], r["anchor"], r["provenance"], _cell(r["expected"]),
                         _cell(r["actual"]), r["passed"]] for r in payload["records"]]
    if "wallcross" in payload:
        header = ["class", "rank", "vanishing_roots", "orth_root_sum",
                  "d41", "d42", "d20", "d21", "d22", "weighted_balance"]
        rows = []
        for b in payload["wallcross"]:
            d = b.get("delta", {})
            rows.append([b["class"], b["rank"], b["vanishing_roots"],
                         b.get("orth_root_sum"), d.get("4,1"), d.get("4,2"),
                         d.get("2,0"), d.get("2,1"), d.get("2,2"),
                         b.get("weighted_balance")])
        return header, rows
    rows = payload["rows"]
    if not rows:
        return ["empty"], []
    header = list(rows[0].keys())
    return header, [[_cell(r.get(h)) for h in header] for r in rows]


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    header, rows = _flatten(payload)
    if fmt == "csv":
        return _csv_text(header, [[_cell(v) for v in row] for row in rows])
    return _md_table(header, rows)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_error(msg: str) -> int:
    print(f"dp1: error: {msg}", file=sys.stderr)
    return EXIT_USAGE


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp1",
        description="Lattice enumerations and signed-count verification for "
                    "real degree-1 del Pezzo surfaces.",
        epilog=f"Set {ENUM_DEPTH_ENV} to cap enumeration recursion depth (fuzzing aid).",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="progress notes on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_class: bool = True,
               with_stratum: bool = False) -> None:
        if with_class:
            p.add_argument("--class", dest="class_id", default="all",
                           help="deformation class id or 'all'")
        if with_stratum:
            p.add_argument("--stratum", type=int, choices=(0, 2, 4), default=None)
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    common(sub.add_parser("classes", help="list the 11 deformation classes"), with_class=False)
    common(sub.add_parser("enumerate", help="enumerate degree-2 stratum classes"),
           with_stratum=True)
    p_tables = sub.add_parser("tables", help="regenerate a table (2-7)")
    p_tables.add_argument("number", type=int, choices=range(2, 8), metavar="N")
    common(p_tables, with_class=False)
    common(sub.add_parser("verify", help="run the full verification suite"))
    common(sub.add_parser("wallcross", help="wall-crossing sums and balance table"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    class_id = getattr(args, "class_id", "all")
    if class_id != "all":
        known = {c.id for c in real_forms.deformation_classes()}
        if class_id not in known:
            parser.error(f"unknown class {class_id!r}; choose from {sorted(known)} or 'all'")
    try:
        int(os.environ.get(ENUM_DEPTH_ENV, 0))
    except ValueError:
        return _config_error(f"{ENUM_DEPTH_ENV} must be an integer, "
                             f"got {os.environ[ENUM_DEPTH_ENV]!r}")
    if args.command == "classes":
        payload = classes_payload()
    elif args.command == "enumerate":
        payload = enumerate_payload(class_id, args.stratum)
    elif args.command == "tables":
        payload = tables_payload(args.number)
    elif args.command == "wallcross":
        payload = wallcross_payload(class_id)
    else:
        payload = verify_payload(class_id)
    text = render(payload, args.fmt)
    try:
        _emit(text, args.out)
    except OSError as err:
        return _config_error(f"cannot write {args.out}: {err.strerror or err}")
    if args.command == "verify":
        failed = payload["summary"]["failed"]
        if args.verbose:
            print(f"verify: {payload['summary']['total']} records, {failed} failed",
                  file=sys.stderr)
        return EXIT_FAIL if failed else EXIT_OK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
