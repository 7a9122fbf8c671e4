"""Verification records: every tabulated value and identity, recomputed and compared.

Each record is an exact integer (or integer-structure) comparison; provenance
distinguishes values produced by enumeration from cited closed-form inputs.
Builders never raise: a failing construction yields a failed record so partial
reports survive corrupted inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from . import counting, golden, pin, properties, real_forms, wallcross
from .lattice import enumerate_coordinates, enumerate_vectors
from .roots import ROOT_COUNTS, root_system_type

ENUMERATED = "enumerated"
CITED = "cited-formula"


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
        emb = real_forms.lambda_basis(cid)
        lat = emb.sublattice
        comp_type = root_system_type(real_forms.orthogonal_complement(lat))
        dual_type = real_forms.get_class(c.bertini_dual_id).lambda_type
        recs.append(_rec(f"complement_type:{cid}", "table1/pairing", ENUMERATED,
                         dual_type, comp_type, cs))
        n2 = len(enumerate_vectors(lat, -2)) if c.rank else 0
        recs.append(_rec(f"card_roots:{cid}", "table1/root-count", ENUMERATED,
                         ROOT_COUNTS[c.lambda_type], n2, cs))
        n4 = len(counting.b_classes(c, 2))
        recs.append(_rec(f"card_four_vectors:{cid}", "four-vector-count", ENUMERATED,
                         golden.FOUR_VECTOR_COUNTS[c.lambda_type], n4, cs))
        if c.lambda_type.endswith("A1") and "+" not in c.lambda_type:
            m = c.rank
            recs.append(_rec(f"card_four_formula:{cid}", "orthogonal-pair-count", ENUMERATED,
                             4 * math.comb(m, 2), n4, cs))
        rep = counting.count_report(c)
        recs.append(_rec(f"rows_consistent:{cid}", "row-totals", ENUMERATED,
                         True, rep.passed, cs))
        recs.append(_rec(f"root_sum:{cid}", "eq:rank-sum", ENUMERATED,
                         2 * c.rank, rep.signed_sums[2], cs))
        recs.append(_rec(f"four_sum:{cid}", "table6/margin-c4", ENUMERATED,
                         2 * c.rank * (c.rank - 1), rep.signed_sums[4], cs))
        recs.append(_rec(f"line_identity_8:{cid}", "eq:first-layer-8", ENUMERATED,
                         8, counting.line_count_identities(c)[1], cs))
        recs.append(_rec(f"total_30:{cid}", "identity:total-30", ENUMERATED,
                         30, rep.total, cs))
    except Exception as err:  # a failing construction must yield a failed record
        recs.append(_fail(f"class_block:{cid}", "class-block", err, cs))
    return recs


_NAMED_B4 = {"M-connected": 112, "M-1-connected": 84, "M-2-connected": 60,
             "M-3-connected": 40, "M-2-I-a": 24, "M-2-I-b": 24}


def _named_sum_records() -> list[VerificationRecord]:
    recs = []
    for cid, want in _NAMED_B4.items():
        try:
            got = counting.c4_total(real_forms.get_class(cid))
            recs.append(_rec(f"four_sum_named:{cid}", "table6/row-c4", ENUMERATED,
                             want, got, (cid,)))
        except Exception as err:
            recs.append(_fail(f"four_sum_named:{cid}", "table6/row-c4", err, (cid,)))
    return recs


def _pair_records() -> list[VerificationRecord]:
    recs = []
    for c, d in real_forms.bertini_pairs():
        cs = (c.id, d.id)
        try:
            recs.append(_rec(f"pair_rank_sum:{c.id}", "table1/pairing", ENUMERATED,
                             8, c.rank + d.rank, cs))
            recs.append(_rec(f"pair_euler_sum:{c.id}", "table1/pairing", ENUMERATED,
                             2, c.euler_char + d.euler_char, cs))
            s = counting.signed_sum(c, 1) + counting.signed_sum(d, 1)
            recs.append(_rec(f"pair_line_sum_16:{c.id}", "eq:pair-16", ENUMERATED, 16, s, cs))
            recs.append(_rec(f"pair_total_96:{c.id}", "identity:pair-96", ENUMERATED,
                             96, counting.pair_signed_total(c), cs))
        except Exception as err:
            recs.append(_fail(f"pair_block:{c.id}", "pair-block", err, cs))
    return recs


def _table_records() -> list[VerificationRecord]:
    e8 = real_forms.get_class("M-connected")
    e7 = real_forms.get_class("M-1-connected")
    builders = [
        ("table2", golden.TABLE2, lambda: counting.classify_roots(e8), ("M-connected",)),
        ("table3", golden.TABLE3, lambda: counting.classify_levels(e8, 1), ("M-connected",)),
        ("table4", golden.TABLE4, lambda: counting.classify_levels(e8, 2), ("M-connected",)),
        ("table5", golden.TABLE5, lambda: counting.classify_levels(e7, 2), ("M-1-connected",)),
    ]
    recs = []
    for name, expected, build, cs in builders:
        try:
            rows = build()
            recs.append(_rec(f"{name}_rows", f"{name}/rows", ENUMERATED,
                             _golden_rows(expected), _rows_as_lists(rows), cs))
            recs.append(_rec(f"{name}_total", f"{name}/total", ENUMERATED,
                             sum(r[-2] for r in _golden_rows(expected)),
                             sum(r.count for r in rows), cs))
        except Exception as err:
            recs.append(_fail(f"{name}_rows", f"{name}/rows", err, cs))
    try:
        recs.append(_rec("table5_bilevel_rule", "table5/bilevel", ENUMERATED, [], [
            list(r.key) for r in counting.classify_levels(e7, 2)
            if (r.bilevel[0] + r.bilevel[1]) % 4 != r.qhat
        ], ("M-1-connected",)))
    except Exception as err:
        recs.append(_fail("table5_bilevel_rule", "table5/bilevel", err, ("M-1-connected",)))
    return recs


def _table6_records() -> list[VerificationRecord]:
    recs = []
    for col in golden.TABLE6_COLUMNS:
        plus_id, minus_id = golden.TABLE6_PAIRS[col]
        try:
            plus = real_forms.get_class(plus_id)
            minus = real_forms.get_class(minus_id)
            actual = (counting.c2_total(plus), counting.c2_total(minus),
                      counting.c4_total(plus), counting.c4_total(minus),
                      counting.c0_total(plus), counting.c0_total(minus))
            for row, want, got in zip(golden.TABLE6_ROWS, golden.TABLE6[col], actual):
                prov = CITED if row.startswith(("c0", "c2")) else ENUMERATED
                recs.append(_rec(f"table6:{col}:{row}", f"table6/{col}/{row}", prov,
                                 want, got, (plus_id, minus_id)))
            for side in dict.fromkeys((plus, minus)):
                r = side.rank
                recs.append(_rec(f"table6_form_c2:{side.id}", "table6/margin-c2", CITED,
                                 golden.ROW_FORMS["c2"](r), counting.c2_total(side), (side.id,)))
                recs.append(_rec(f"table6_form_c4:{side.id}", "table6/margin-c4", ENUMERATED,
                                 golden.ROW_FORMS["c4"](r), counting.c4_total(side), (side.id,)))
                recs.append(_rec(f"table6_form_c0:{side.id}", "table6/margin-c0", CITED,
                                 golden.ROW_FORMS["c0"](r), counting.c0_total(side), (side.id,)))
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
        orth_vals = sorted({t.orth for t in tables})
        r = c.rank
        recs.append(_rec(f"splitting_table:{cid}", "splitting-tables", ENUMERATED,
                         0, sum(t.split_mismatches for t in tables), cs))
        recs.append(_rec(f"orth_root_sum:{cid}", "sum:orthogonal-roots", ENUMERATED,
                         [2 * (r - 1)], orth_vals, cs))
        recs.append(_rec(f"pairing_zero_b2:{cid}", "pairing-cancellation", ENUMERATED,
                         [0], sorted({t.d21 for t in tables}), cs))
        recs.append(_rec(f"pairing_zero_b4:{cid}", "pairing-cancellation", ENUMERATED,
                         [0], sorted({t.d41 for t in tables}), cs))
        recs.append(_rec(f"delta_table:{cid}", "table7/rows", CITED,
                         [list(wallcross.delta_expected(c))],
                         [list(d) for d in sorted({t.as_tuple() for t in tables})], cs))
        recs.append(_rec(f"delta_antisymmetry:{cid}", "table7/cancellation", ENUMERATED,
                         [0], sorted({t.d42 + t.d20 for t in tables}), cs))
        recs.append(_rec(f"weighted_balance_12:{cid}", "balance:twelve", CITED,
                         [12], sorted({t.balance for t in tables}), cs))
        recs.append(_rec(f"orth_sum_vs_table_row:{cid}", "table7/factor-two", ENUMERATED,
                         [2 * (r - 1), 4 * (r - 1)],
                         [orth_vals[0], min(t.d42 for t in tables)], cs))
    except Exception as err:
        recs.append(_fail(f"wallcross_block:{cid}", "wallcross-block", err, cs))
    return recs


def _cross_model_records() -> list[VerificationRecord]:
    recs = []
    for cid in ("M-connected", "M-1-connected"):
        try:
            c = real_forms.get_class(cid)
            lat = real_forms.lambda_basis(cid).sublattice
            vb2 = sum(1 if pin.qhat_from_coordinates(t, -2) == 0 else -1
                      for t in enumerate_coordinates(lat, -2))
            vb4 = sum(1 if pin.qhat_from_coordinates(t, -4) == 0 else -1
                      for t in enumerate_coordinates(lat, -4))
            recs.append(_rec(f"cross_model_roots:{cid}", "code-vs-basis", ENUMERATED,
                             counting.signed_sum(c, 1), vb2, (cid,)))
            recs.append(_rec(f"cross_model_four:{cid}", "code-vs-basis", ENUMERATED,
                             counting.signed_sum(c, 2), vb4, (cid,)))
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
        sat = real_forms.saturate(real_forms.lambda_basis("M-4").sublattice)
        recs.append(_rec("four_a1_saturation", "saturation:exactly-8", ENUMERATED,
                         8, len(enumerate_vectors(sat, -2)), ("M-4",)))
        adjacent = [[counting.signed_total(a), counting.signed_total(b)]
                    for a, b in _adjacent_rank_pairs(classes)]
        recs.append(_rec("adjacent_rank_totals", "wall-to-wall", ENUMERATED,
                         [[30, 30]] * 8, adjacent))
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


def _adjacent_rank_pairs(classes):
    by_rank: dict[int, list] = {}
    for c in classes:
        by_rank.setdefault(c.rank, []).append(c)
    pairs = []
    for r in range(8, 0, -1):
        for a in by_rank.get(r, []):
            for b in by_rank.get(r - 1, []):
                pairs.append((a, b))
    # One representative pair per adjacent rank step keeps the record small.
    seen_steps = set()
    out = []
    for a, b in pairs:
        if (a.rank, b.rank) not in seen_steps:
            seen_steps.add((a.rank, b.rank))
            out.append((a, b))
    return out


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

    The randomized property suite and the global structure records run only for
    the full scope.
    """
    recs: list[VerificationRecord] = []
    if scope == "all":
        recs.extend(_structure_records())
        recs.extend(_polynomial_records())
    wanted = None
    if scope != "all":
        c = real_forms.get_class(scope)
        wanted = {scope, c.bertini_dual_id}
    for c in real_forms.deformation_classes():
        if wanted is not None and c.id not in wanted:
            continue
        recs.extend(_class_records(c))
        recs.extend(_wallcross_records(c))
    recs.extend(_named_sum_records())
    recs.extend(_pair_records())
    recs.extend(_table_records())
    recs.extend(_table6_records())
    recs.extend(_cross_model_records())
    if scope == "all":
        recs.extend(_property_records())
    else:
        recs = [r for r in recs if scope in r.classes]
    return recs


def summarize(records: list[VerificationRecord]) -> dict[str, int]:
    failed = sum(not r.passed for r in records)
    return {"total": len(records), "passed": len(records) - failed, "failed": failed}
