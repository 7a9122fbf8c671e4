"""Command-line front end: renders enumerations, the tables `report` derives, and reports.

Exit codes: 0 all checks passed, 1 at least one failed record, 2 usage or
config error (bad arguments, an empty or unwritable --out path, or an unwritable
stdout).
Output is deterministic for a fixed invocation; JSON uses lower_snake_case keys
and unquoted integers.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

from . import counting, golden, real_forms, report, wallcross

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

FORMATS = ("json", "csv", "md")


class Lanes(NamedTuple):
    """Uniform rows of exact ints, one lane per int of a row: each (key, width) field is an
    int (width 0) or a list of width ints.  `_write_json` writes `json`; `dicts` are the rows."""

    fields: tuple[tuple[str, int], ...]
    lanes: list

    def dicts(self) -> Iterator[dict]:
        return ({key: list(islice(values, w)) if w else next(values) for key, w in self.fields}
                for values in map(iter, zip(*self.lanes)))

    def json(self, indent: str) -> str:
        """The list as `_write_json` writes it at indent: one template, filled from the lanes."""
        n, inner, deeper = len(self.lanes[0]), indent + "  ", indent + "    "
        items = (",\n  " + deeper).join  # a list field's values, one level deeper
        fields = (",\n" + deeper).join(_ENCODE(key).replace("%", "%%") + ": "
                                       + (f"[\n  {deeper}{items(['%d'] * w)}\n{deeper}]" if w else "%d")
                                       for key, w in self.fields)
        rows = (",\n" + inner).join(["{\n" + deeper + fields + "\n" + inner + "}"] * n).encode()
        values = (rows % tuple(chain.from_iterable(zip(*self.lanes)))).decode()
        return f"[\n{inner}{values}\n{indent}]" if n else "[]"


class Output(NamedTuple):
    """A command's JSON payload and its flat table for csv and md: a header and
    rows keyed by it (a missing key prints empty).  The rows are a lazy view of
    the payload, so a JSON run never builds them."""

    payload: dict
    header: list[str]
    rows: Iterable[dict]
    summary: dict | None = None  # verify's record counts; they set the exit code


# -- one builder per command --------------------------------------------------


def classes_output() -> Output:
    rows = [{
        "id": c.id,
        "topology": c.topology,
        "smith_type": c.smith_type,
        "lambda_type": c.lambda_type,
        "rank": c.rank,
        "euler_char": c.euler_char,
        "bertini_dual": c.bertini_dual_id,
        "qhat_model": "basis" if c.code is None else "code",
    } for c in real_forms.deformation_classes()]
    pairs = [[a.id, b.id] for a, b in real_forms.bertini_pairs()]
    return Output({"classes": rows, "pairs": pairs}, list(rows[0]), rows)


def enumerate_output(class_id: str, stratum: int | None) -> Output:
    strata = (0, 2, 4) if stratum is None else (stratum,)
    classes = real_forms.deformation_classes() if class_id == "all" else [real_forms.get_class(class_id)]
    blocks = []
    for c in classes:
        for s in strata:
            st = counting.b_classes(c, s // 2)
            alpha, v = counting.alpha_columns(st).unpack(), st.columns.unpack()
            blocks.append({
                "class": c.id,
                "stratum": s,
                "count": len(st.vs),
                "signed_sum": counting.signed_sum(c, s // 2),
                "classes": Lanes((("alpha", len(alpha)), ("v", len(v)), ("qhat", 0)), [*alpha, *v, st.qs]),
            })
    return Output({"enumeration": blocks}, ["class", "stratum", "alpha", "v", "qhat"],
                  ({**b, **item} for b in blocks for item in b["classes"].dicts()))


def _row_dict(n: int, r: counting.TableRow) -> dict:
    d = {"level": r.level, "signature": list(r.signature), "count": r.count,
         "qhat": r.qhat, "provenance": report.ENUMERATED,
         "anchor": f"table{n}/level{r.level}"}
    if r.pair_coeff is not None:
        d["pair_coeff"] = r.pair_coeff
    if r.bilevel is not None:
        d["bilevel"] = list(r.bilevel)
    return d


def tables_output(n: int) -> Output:
    if n in report.TABLES:
        rows = [_row_dict(n, r) for r in report.table_rows(n)]
    elif n == 6:
        rows = [{"column": col, "row": row, "value": v, "provenance": prov,
                 "anchor": f"table6/{col}/{row}"}
                for col in golden.TABLE6 for row, v, prov in report.table6_cells(col)]
    elif n == 7:
        rows = [{"class": c.id, "type": label, "signature": sig, "formula_value": want,
                 "enumerated_value": got, "provenance": prov,
                 "anchor": f"table7/{c.id}/{label}"}
                for c in real_forms.deformation_classes()
                for label, sig, want, got, prov in report.table7_cells(c)]
    else:
        raise ValueError(f"no table {n}")
    return Output({"table": n, "rows": rows}, list(rows[0]) if rows else ["empty"], rows)


def verify_output(scope: str) -> Output:
    records = report.build_records(scope)
    summary = report.summarize(records)
    header = ["name", "anchor", "provenance", "expected", "actual", "passed"]
    rows = [{h: getattr(r, h) for h in header} | {"classes": list(r.classes)} for r in records]
    return Output({"scope": scope, "summary": summary, "records": rows}, header, rows, summary)


def wallcross_output(scope: str) -> Output:
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
                "delta": dict(zip((t[0] for t in golden.TABLE7), dt)),
                "cited": list(wallcross.CITED_FIELDS),
                "weighted_balance": dt.balance,
            })
        blocks.append(block)
    header = ["class", "rank", "vanishing_roots", "orth_root_sum",
              *wallcross.DeltaTable._fields, "weighted_balance"]
    return Output({"wallcross": blocks}, header,
                  ({**b, **dict(zip(wallcross.DeltaTable._fields, b.get("delta", {}).values()))}
                   for b in blocks))


# -- rendering ----------------------------------------------------------------


_ENCODE = json.JSONEncoder(ensure_ascii=False).encode
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps' bytes, built once


def _cell(v) -> str:
    if isinstance(v, (list, tuple, dict)):
        return _COMPACT(v)
    return "" if v is None else str(v)


def _write_json(obj, indent: str, parts: list[str]) -> list[str]:
    """Append json.dumps(obj, indent=2, ensure_ascii=False)'s pieces to parts (keys
    are str, and `Lanes` is its list of dicts); a list of exact ints is one join,
    since type() keeps bools out of it, and `Lanes` is one %-format."""
    inner = indent + "  "
    if type(obj) is Lanes:
        parts.append(obj.json(indent))
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(obj.items()):
            parts += (",\n" if i else "{\n", inner, _ENCODE(key), ": ")
            _write_json(value, inner, parts)
        parts += ("\n", indent, "}")
    elif isinstance(obj, (list, tuple)) and obj and all(type(x) is int for x in obj):
        parts += ("[\n", inner, (",\n" + inner).join(map(str, obj)), "\n", indent, "]")
    elif isinstance(obj, (list, tuple)) and obj:
        for i, value in enumerate(obj):
            parts += (",\n" if i else "[\n", inner)
            _write_json(value, inner, parts)
        parts += ("\n", indent, "]")
    else:  # a scalar, {} or []
        parts.append(str(obj) if type(obj) is int else _ENCODE(obj))
    return parts


def render(out: Output, fmt: str) -> str:
    if fmt == "json":
        return "".join(_write_json(out.payload, "", [])) + "\n"
    rows = ([_cell(row.get(h)) for h in out.header] for row in out.rows)
    if fmt == "csv":
        import csv  # only --format csv needs it
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(out.header)
        w.writerows(rows)
        return buf.getvalue()
    lines = [out.header, ["---"] * len(out.header), *rows]  # an escaped | splits no row
    return "".join("| " + " | ".join(x.replace("|", r"\|") for x in line) + " |\n" for line in lines)


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:  # the process started with stdout closed
        raise OSError("stdout is closed")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _config_error(msg: str) -> int:
    print(f"dp1: error: {msg}", file=sys.stderr)
    return EXIT_USAGE


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp1",
        description="Lattice enumerations and signed-count verification for "
                    "real degree-1 del Pezzo surfaces.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print verify's record counts on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_class: bool = True,
               with_stratum: bool = False) -> None:
        if with_class:
            p.add_argument("--class", dest="class_id", default="all", metavar="ID",
                           choices=[c.id for c in real_forms.deformation_classes()] + ["all"],
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
    args = _build_parser().parse_args(argv)
    class_id = getattr(args, "class_id", "all")
    if args.out == "":
        return _config_error("--out path is empty")
    out = {
        "classes": classes_output,
        "enumerate": lambda: enumerate_output(class_id, args.stratum),
        "tables": lambda: tables_output(args.number),
        "verify": lambda: verify_output(class_id),  # its builders turn errors into failed records
        "wallcross": lambda: wallcross_output(class_id),
    }[args.command]()
    text = render(out, args.fmt)
    try:
        _emit(text, args.out)
    except OSError as err:
        return _config_error(f"cannot write {'stdout' if args.out is None else args.out}: "
                             f"{err.strerror or err}")
    if out.summary is None:
        return EXIT_OK
    if args.verbose:
        print(f"verify: {out.summary['total']} records, {out.summary['failed']} failed",
              file=sys.stderr)
    return EXIT_FAIL if out.summary["failed"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
