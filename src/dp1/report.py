"""Verification records: every tabulated value and identity, recomputed and compared.

Each record is an exact integer (or integer-structure) comparison; provenance
distinguishes values produced by enumeration from cited closed-form inputs.
Builders never raise: a failing construction yields a failed record so partial
reports survive corrupted inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import counting, golden, pin, properties, real_forms, wallcross
from .lattice import enumerate_vectors
from .roots import ROOT_COUNTS, root_system_type

ENUMERATED = "enumerated"
CITED = "cited-formula"

# Scope predicate: true when a record naming these class ids can be in scope.
Wanted = Callable[..., bool]


@dataclass(frozen=True)
class VerificationRecord:
    name: str
    anchor: str
    provenance: str
    expected: Any
    actual: Any
    passed: bool
    classes: tuple[str, ...] = ()


def _rec(name: str, anchor: str, provenance: str, expected: Any, actual: Any,
         classes: tuple[str, ...] = ()) -> VerificationRecord:
    return VerificationRecord(name, anchor, provenance, expected, actual,
                              expected == actual, classes)


def _fail(name: str, anchor: str, err: Exception, classes: tuple[str, ...]) -> VerificationRecord:
    return VerificationRecord(name, anchor, ENUMERATED, "ok",
                              f"error: {type(err).__name__}: {err}", False, classes)


def _rows_as_lists(rows) -> list[list]:
    out = []
    for r in rows:
        out.append([r.level, list(r.signature), r.pair_coeff, r.count, r.qhat])
    return sorted(out)


def _golden_rows(table) -> list[list]:
    return sorted([lvl, list(sig), pair, count, qhat] for lvl, sig, pair, count, qhat in table)


def _class_records(c: real_forms.DeformationClass) -> list[VerificationRecord]:
    cid = c.id
    cs = (cid,)
    recs: list[VerificationRecord] = []
    try:
        lat = real_forms.lambda_basis(cid)
        comp_type = root_system_type(real_forms.orthogonal_complement(lat))
        dual_type = real_forms.get_class(c.bertini_dual_id).lambda_type
        recs.append(_rec(f"complement_type:{cid}", "table1/pairing", ENUMERATED,
                         dual_type, comp_type, cs))
        recs.append(_rec(f"card_roots:{cid}", "table1/root-count", ENUMERATED,
                         ROOT_COUNTS[c.lambda_type], len(counting.b_classes(c, 1)), cs))
        recs.append(_rec(f"card_four_vectors:{cid}", "four-vector-count", ENUMERATED,
                         golden.FOUR_VECTOR_COUNTS[c.lambda_type], len(counting.b_classes(c, 2)), cs))
        if c.code is not None:
            from_strata, from_rows = counting.count_report(c)
            recs.append(_rec(f"rows_consistent:{cid}", "row-totals", ENUMERATED,
                             from_strata, from_rows, cs))
        recs.append(_rec(f"root_sum:{cid}", "eq:rank-sum", ENUMERATED,
                         2 * c.rank, counting.signed_sum(c, 1), cs))
        recs.append(_rec(f"four_sum:{cid}", "table6/margin-c4", ENUMERATED,
                         golden.ROW_FORMS["c4"](c.rank), counting.c4_total(c), cs))
        recs.append(_rec(f"total_30:{cid}", "identity:total-30", ENUMERATED,
                         30, counting.signed_total(c), cs))
    except Exception as err:  # a failing construction must yield a failed record
        recs.append(_fail(f"class_block:{cid}", "class-block", err, cs))
    return recs


def _pair_records(wanted: Wanted) -> list[VerificationRecord]:
    recs = []
    for c, d in real_forms.bertini_pairs():
        cs = (c.id, d.id)
        if not wanted(*cs):
            continue
        try:
            recs.append(_rec(f"pair_rank_sum:{c.id}", "table1/pairing", ENUMERATED,
                             8, c.rank + d.rank, cs))
            s = counting.signed_sum(c, 1) + counting.signed_sum(d, 1)
            recs.append(_rec(f"pair_line_sum_16:{c.id}", "eq:pair-16", ENUMERATED, 16, s, cs))
            recs.append(_rec(f"pair_total_96:{c.id}", "identity:pair-96", ENUMERATED,
                             96, counting.pair_signed_total(c), cs))
        except Exception as err:
            recs.append(_fail(f"pair_block:{c.id}", "pair-block", err, cs))
    return recs


# Tables 2-5: golden rows, the class tabulated and its row builder.  Builders look
# the counting functions up when called, so wrappers installed on them see the calls.
TABLES = {
    2: (golden.TABLE2, "M-connected", lambda c: counting.classify_roots(c)),
    3: (golden.TABLE3, "M-connected", lambda c: counting.classify_levels(c, 1)),
    4: (golden.TABLE4, "M-connected", lambda c: counting.classify_levels(c, 2)),
    5: (golden.TABLE5, "M-1-connected", lambda c: counting.classify_levels(c, 2)),
}


def table_rows(n: int) -> list[counting.TableRow]:
    """The enumerated rows of Table n, 2 <= n <= 5."""
    _, cid, build = TABLES[n]
    return build(real_forms.get_class(cid))


def table6_cells(col: str) -> list[tuple[str, int, str]]:
    """(row, value, provenance) for the six cells of one Table 6 column."""
    plus, minus = (real_forms.get_class(i) for i in golden.TABLE6_PAIRS[col])
    values = (counting.c2_total(plus), counting.c2_total(minus),
              counting.c4_total(plus), counting.c4_total(minus),
              counting.c0_total(plus), counting.c0_total(minus))
    return [(row, v, CITED if row.startswith(("c0", "c2")) else ENUMERATED)
            for row, v in zip(golden.TABLE6_ROWS, values)]


def table7_cells(c: real_forms.DeformationClass) -> list[tuple[str, str, int, int | None, str]]:
    """(type, signature, formula value, enumerated value, provenance) for each
    Table 7 row of one class, enumerated at its first vanishing root if any."""
    roots = wallcross.vanishing_roots(c)
    dt = wallcross.delta_table(c, roots[0]) if roots else None
    cited = dt.cited if dt else ()
    return [(label, sig, want, getattr(dt, field, None), CITED if field in cited else ENUMERATED)
            for (label, sig, _), want, field in zip(golden.TABLE7, wallcross.delta_expected(c),
                                                    wallcross.DELTA_FIELDS)]


def _table_records(wanted: Wanted) -> list[VerificationRecord]:
    recs = []
    built: dict[int, list[counting.TableRow] | Exception] = {}  # rows, or what stopped them
    for n, (expected, cid, _) in TABLES.items():
        if not wanted(cid):
            continue
        try:
            built[n] = table_rows(n)
            recs.append(_rec(f"table{n}_rows", f"table{n}/rows", ENUMERATED,
                             _golden_rows(expected), _rows_as_lists(built[n]), (cid,)))
        except Exception as err:
            built[n] = err
            recs.append(_fail(f"table{n}_rows", f"table{n}/rows", err, (cid,)))
    if 5 not in built:
        return recs
    # The bi-level rule q = level + odd real coefficients (mod 4) on every E7 row:
    # B^2 and Table 5's B^4.  Lists the [stratum, level, signature, pair] breaking it.
    try:
        if isinstance(built[5], Exception):
            raise built[5]
        e7 = real_forms.get_class("M-1-connected")
        recs.append(_rec("table5_bilevel_rule", "table5/bilevel", ENUMERATED, [], [
            [s, *r.key] for s, rows in ((2, counting.classify_levels(e7, 1)), (4, built[5]))
            for r in rows if (r.bilevel[0] + r.bilevel[1]) % 4 != r.qhat
        ], ("M-1-connected",)))
    except Exception as err:
        recs.append(_fail("table5_bilevel_rule", "table5/bilevel", err, ("M-1-connected",)))
    return recs


def _table6_records(wanted: Wanted) -> list[VerificationRecord]:
    recs = []
    for col in golden.TABLE6_COLUMNS:
        plus_id, minus_id = golden.TABLE6_PAIRS[col]
        if not wanted(plus_id, minus_id):
            continue
        try:
            cells = table6_cells(col)
            for (row, got, prov), want in zip(cells, golden.TABLE6[col]):
                recs.append(_rec(f"table6:{col}:{row}", f"table6/{col}/{row}", prov,
                                 want, got, (plus_id, minus_id)))
            # Each side's c2 row against the closed form in its rank (one side if both
            # coincide); four_sum checks the c4 row, and c0 is the closed form itself.
            by_row = {row: (got, prov) for row, got, prov in cells}
            for side, cid in zip(("plus", "minus"), dict.fromkeys((plus_id, minus_id))):
                if not wanted(cid):
                    continue
                got, prov = by_row[f"c2_{side}"]
                recs.append(_rec(f"table6_form_c2:{cid}", "table6/margin-c2", prov,
                                 golden.ROW_FORMS["c2"](real_forms.get_class(cid).rank),
                                 got, (cid,)))
        except Exception as err:
            recs.append(_fail(f"table6:{col}", f"table6/{col}", err, (plus_id, minus_id)))
    return recs


def _polynomial_records() -> list[VerificationRecord]:
    # The two totals as polynomials in the rank, checked at every integer 0..8.
    totals30 = [golden.ROW_FORMS["c0"](r) + golden.ROW_FORMS["c2"](r) + golden.ROW_FORMS["c4"](r)
                for r in range(9)]
    totals96 = [golden.ROW_FORMS["c2"](r) + 2 * golden.ROW_FORMS["c4"](r)
                + golden.ROW_FORMS["c2"](8 - r) + 2 * golden.ROW_FORMS["c4"](8 - r)
                for r in range(9)]
    return [
        _rec("identity_total_30_poly", "identity:total-30", CITED, [30] * 9, totals30),
        _rec("identity_pair_96_poly", "identity:pair-96", CITED, [96] * 9, totals96),
    ]


def _wallcross_records(c: real_forms.DeformationClass) -> list[VerificationRecord]:
    cid = c.id
    cs = (cid,)
    recs: list[VerificationRecord] = []
    try:
        roots = wallcross.vanishing_roots(c)
        if cid == "M-connected":
            recs.append(_rec(f"vanishing_count:{cid}", "table2/q0-rows", ENUMERATED,
                             128, len(roots), cs))
        if cid == "M-4":
            recs.append(_rec(f"vanishing_count:{cid}", "orthogonal-roots", ENUMERATED,
                             8, len(roots), cs))
        if not roots:
            return recs
        tables = [wallcross.delta_table(c, root) for root in roots]
        recs.append(_rec(f"splitting_table:{cid}", "splitting-tables", ENUMERATED,
                         0, sum(t.split_mismatches for t in tables), cs))
        recs.append(_rec(f"orth_root_sum:{cid}", "sum:orthogonal-roots", ENUMERATED,
                         [2 * (c.rank - 1)], sorted({t.orth for t in tables}), cs))
        recs.append(_rec(f"delta_table:{cid}", "table7/rows", CITED,
                         [list(wallcross.delta_expected(c))],
                         [list(d) for d in sorted({t.as_tuple() for t in tables})], cs))
    except Exception as err:
        recs.append(_fail(f"wallcross_block:{cid}", "wallcross-block", err, cs))
    return recs


def _cross_model_records(wanted: Wanted) -> list[VerificationRecord]:
    recs = []
    for cid in ("M-connected", "M-1-connected"):
        if not wanted(cid):
            continue
        try:
            c = real_forms.get_class(cid)
            lat = real_forms.lambda_basis(cid)
            vanishing = (2,) * lat.rank
            recs.append(_rec(f"cross_model_roots:{cid}", "code-vs-basis", ENUMERATED,
                             counting.signed_sum(c, 1),
                             counting.lattice_signed_sum(lat, 1, vanishing), (cid,)))
            recs.append(_rec(f"cross_model_four:{cid}", "code-vs-basis", ENUMERATED,
                             counting.signed_sum(c, 2),
                             counting.lattice_signed_sum(lat, 2, vanishing), (cid,)))
        except Exception as err:
            recs.append(_fail(f"cross_model:{cid}", "code-vs-basis", err, (cid,)))
    return recs


def _structure_records() -> list[VerificationRecord]:
    recs = []
    try:
        classes = real_forms.deformation_classes()
        recs.append(_rec("classes_count", "table1/count", ENUMERATED, 11, len(classes)))
        recs.append(_rec("pairs_count", "table1/pairs", ENUMERATED,
                         7, len(real_forms.bertini_pairs())))
        involutive = all(real_forms.bertini_dual(real_forms.bertini_dual(c)) is c
                         for c in classes)
        recs.append(_rec("dual_involutive", "table1/pairing", ENUMERATED, True, involutive))
        sat = real_forms.saturate(real_forms.lambda_basis("M-4"))
        recs.append(_rec("four_a1_saturation", "saturation:exactly-8", ENUMERATED,
                         8, len(enumerate_vectors(sat, -2)), ("M-4",)))
    except Exception as err:
        recs.append(_fail("structure_block", "structure", err, ()))
    try:
        d6 = real_forms.get_class("M-2-connected")
        split: dict[int, int] = {}
        for b in counting.b_classes(d6, 2):
            split[b.qhat] = split.get(b.qhat, 0) + 1
        recs.append(_rec("d6_four_split", "d6:nine-six-split", ENUMERATED,
                         sorted(golden.D6_FOUR_SPLIT.items()), sorted(split.items()),
                         ("M-2-connected",)))
    except Exception as err:
        recs.append(_fail("d6_four_split", "d6:nine-six-split", err, ("M-2-connected",)))
    try:
        best, _ = pin.normalize_code(pin.Code((1, 1, 1, 1, 1, 3, 3, 3, 3)))
        recs.append(_rec("normalize_positive_seed", "code:all-plus", ENUMERATED,
                         [1] * 9, list(best.residues), ("M-connected",)))
        seen = pin.reachable_codes(pin.Code((1, 1, 1, 1, 3, 3, 3)))
        recs.append(_rec("normalize_negative_seed", "code:all-minus", ENUMERATED,
                         True, (3,) * 7 in seen, ("M-1-connected",)))
    except Exception as err:
        recs.append(_fail("normalize_seeds", "code:normalization", err, ()))
    return recs


def _property_records() -> list[VerificationRecord]:
    recs = []
    try:
        for res in properties.run_all():
            recs.append(_rec(f"property:{res.name}", f"property/{res.name}", ENUMERATED,
                             [res.instances, 0], [res.instances, res.failures]))
    except Exception as err:
        recs.append(_fail("property_suite", "property-suite", err, ()))
    return recs


def build_records(scope: str = "all") -> list[VerificationRecord]:
    """Verification records; a class-id scope restricts to that class's checks.

    A scoped run builds only the records that can name the scope: each block
    builder skips the items whose class ids exclude it.  The randomized property
    suite and the global structure records run only for the full scope.
    """
    recs: list[VerificationRecord] = []
    if scope == "all":
        wanted: Wanted = lambda *ids: True
        recs.extend(_structure_records())
        recs.extend(_polynomial_records())
    else:
        real_forms.get_class(scope)  # unknown ids raise here
        wanted = lambda *ids: scope in ids
    for c in real_forms.deformation_classes():
        if wanted(c.id):
            recs.extend(_class_records(c))
            recs.extend(_wallcross_records(c))
    for block in (_pair_records, _table_records, _table6_records, _cross_model_records):
        recs.extend(block(wanted))
    if scope == "all":
        recs.extend(_property_records())
    return recs


def summarize(records: list[VerificationRecord]) -> dict[str, int]:
    failed = sum(not r.passed for r in records)
    return {"total": len(records), "passed": len(records) - failed, "failed": failed}
