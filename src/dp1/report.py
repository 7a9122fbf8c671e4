"""Verification records: every tabulated value and identity, recomputed and compared.

Each record is an exact integer (or integer-structure) comparison; provenance
distinguishes values produced by enumeration from cited closed-form inputs.
`_checks` declares every check: its name, anchor, provenance, the class ids it
names, and a thunk returning (expected, actual).  Nothing is computed while
checks are declared.  Two rules then make the report in `build_records`:

- Scope: a run scoped to a class id holds exactly the checks whose classes
  include that id.  Global checks name no class and run only in the full scope.
- Failure: a check whose thunk raises fails under its own name, with actual
  "error: <Type>: <message>"; every other check still runs.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Any, Callable, NamedTuple

from . import counting, golden, pin, properties, real_forms, wallcross
from .roots import root_system_type

ENUMERATED = "enumerated"
CITED = "cited-formula"


class VerificationRecord(NamedTuple):
    name: str
    anchor: str
    provenance: str
    expected: Any
    actual: Any
    passed: bool
    classes: tuple[str, ...] = ()


class _Check(NamedTuple):
    name: str
    anchor: str
    provenance: str
    classes: tuple[str, ...]
    run: Callable[[], tuple[Any, Any]]

    def record(self) -> VerificationRecord:
        try:
            expected, actual = self.run()
            passed = expected == actual
        except Exception as err:  # a failing computation fails this record alone
            expected, actual, passed = "ok", f"error: {type(err).__name__}: {err}", False
        return VerificationRecord(self.name, self.anchor, self.provenance, expected, actual,
                                  passed, self.classes)


def _row_lists(table) -> list[list]:
    """Sorted (level, signature, pair, count, qhat) rows, golden or enumerated, as lists."""
    return sorted([lvl, list(sig), pair, count, qhat] for lvl, sig, pair, count, qhat in table)


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


def _provenance(row: str) -> str:
    """Table 6 rows c0 and c2 rest on the cited closed form and Euler input."""
    return CITED if row.startswith(("c0", "c2")) else ENUMERATED


def _table6_value(col: str, row: str) -> int:
    """One Table 6 cell: row cN_plus (cN_minus) is counting.cN_total of the
    column's plus (minus) class, looked up when called."""
    count, side = row.split("_")
    c = real_forms.get_class(golden.TABLE6_PAIRS[col][side == "minus"])
    return {"c0": counting.c0_total, "c2": counting.c2_total, "c4": counting.c4_total}[count](c)


def table6_cells(col: str) -> list[tuple[str, int, str]]:
    """(row, value, provenance) for the six cells of one Table 6 column."""
    return [(row, _table6_value(col, row), _provenance(row)) for row in golden.TABLE6_ROWS]


def table7_cells(c: real_forms.DeformationClass) -> list[tuple[str, str, int, int | None, str]]:
    """(type, signature, formula value, enumerated value, provenance) for each
    Table 7 row of one class, enumerated at its first vanishing root if any; with
    none, every cell is the cited formula alone."""
    roots = wallcross.vanishing_roots(c)
    dt = wallcross.delta_table(c, roots[0]) if roots else None
    return [(label, sig, want, getattr(dt, field, None),
             ENUMERATED if dt is not None and field not in wallcross.CITED_FIELDS else CITED)
            for (label, sig, _), want, field in zip(golden.TABLE7, wallcross.delta_expected(c),
                                                    wallcross.DeltaTable._fields)]


def _structure_checks() -> list[_Check]:
    return [
        _Check("classes_count", "table1/count", ENUMERATED, (),
               lambda: (11, len(real_forms.deformation_classes()))),
        _Check("pairs_count", "table1/pairs", ENUMERATED, (),
               lambda: (7, len(real_forms.bertini_pairs()))),
        _Check("dual_involutive", "table1/pairing", ENUMERATED, (), lambda: (True, all(
            real_forms.bertini_dual(real_forms.bertini_dual(c)) is c
            for c in real_forms.deformation_classes()))),
        _Check("d6_four_split", "d6:nine-six-split", ENUMERATED, ("M-2-connected",), lambda: (
            sorted(golden.D6_FOUR_SPLIT.items()), sorted(Counter(
                counting.b_classes(real_forms.get_class("M-2-connected"), 2).qs).items()))),
        # One witness per (stratum, v.E) key: E8's strata are the only ones reaching all 11.
        _Check("splitting_table", "splitting-tables", ENUMERATED, ("M-connected",), lambda: (
            sorted(golden.SPLITTING_TABLE.items()),
            sorted(wallcross.splitting_summaries(real_forms.get_class("M-connected")).items()))),
        _Check("normalize_positive_seed", "code:all-plus", ENUMERATED, ("M-connected",),
               lambda: ([1] * 9, list(min(pin.reachable_codes(pin.Code((1, 1, 1, 1, 1, 3, 3, 3, 3))))))),
        _Check("normalize_negative_seed", "code:all-minus", ENUMERATED, ("M-1-connected",),
               lambda: (True, (3,) * 7 in pin.reachable_codes(pin.Code((1, 1, 1, 1, 3, 3, 3))))),
    ]


def _polynomial_checks() -> list[_Check]:
    # The two totals as polynomials in the rank, checked at every integer 0..8.
    def forms(r: int) -> tuple[int, int, int]:
        return tuple(golden.ROW_FORMS[row](r) for row in ("c0", "c2", "c4"))

    def pair_half(r: int) -> int:
        _, c2, c4 = forms(r)
        return c2 + 2 * c4

    return [
        _Check("identity_total_30_poly", "identity:total-30", CITED, (),
               lambda: ([30] * 9, [sum(forms(r)) for r in range(9)])),
        _Check("identity_pair_96_poly", "identity:pair-96", CITED, (),
               lambda: ([96] * 9, [pair_half(r) + pair_half(8 - r) for r in range(9)])),
    ]


def _class_checks(c: real_forms.DeformationClass) -> list[_Check]:
    cid, cs = c.id, (c.id,)
    checks = [
        _Check(f"complement_type:{cid}", "table1/pairing", ENUMERATED, cs, lambda: (
            real_forms.bertini_dual(c).lambda_type,
            root_system_type(real_forms.orthogonal_complement(real_forms.lambda_basis(cid))))),
        _Check(f"card_roots:{cid}", "table1/root-count", ENUMERATED, cs,
               lambda: (golden.ROOT_COUNTS[c.lambda_type], len(counting.b_classes(c, 1).vs))),
        _Check(f"card_four_vectors:{cid}", "four-vector-count", ENUMERATED, cs,
               lambda: (golden.FOUR_VECTOR_COUNTS[c.lambda_type], len(counting.b_classes(c, 2).vs))),
        _Check(f"root_sum:{cid}", "eq:rank-sum", ENUMERATED, cs,
               lambda: (2 * c.rank, counting.signed_sum(c, 1))),
        _Check(f"four_sum:{cid}", "table6/margin-c4", ENUMERATED, cs,
               lambda: (golden.ROW_FORMS["c4"](c.rank), counting.c4_total(c))),
        _Check(f"total_30:{cid}", "identity:total-30", ENUMERATED, cs,
               lambda: (30, counting.signed_total(c))),
    ]
    if c.rank:
        checks.append(_Check(f"delta_table:{cid}", "table7/rows", CITED, cs, lambda: (
            [list(wallcross.delta_expected(c))],
            [list(d) for d in sorted({wallcross.delta_table(c, e)
                                      for e in wallcross.vanishing_roots(c)})])))
    return checks


def _pair_checks(c: real_forms.DeformationClass, d: real_forms.DeformationClass) -> list[_Check]:
    cs = (c.id, d.id)
    return [
        _Check(f"pair_line_sum_16:{c.id}", "eq:pair-16", ENUMERATED, cs,
               lambda: (16, counting.signed_sum(c, 1) + counting.signed_sum(d, 1))),
        _Check(f"pair_total_96:{c.id}", "identity:pair-96", ENUMERATED, cs,
               lambda: (96, counting.pair_signed_total(c))),
    ]


def _table_checks() -> list[_Check]:
    rows = {n: cache(lambda n=n: table_rows(n)) for n in TABLES}
    checks = [_Check(f"table{n}_rows", f"table{n}/rows", ENUMERATED, (cid,),
                     lambda n=n: (_row_lists(TABLES[n][0]), _row_lists(rows[n]())))
              for n, (_, cid, _) in TABLES.items()]

    # The bi-level rule q = (level mod 2) + odd real coefficients (mod 4) on every E7
    # row: B^2 and Table 5's B^4.  Lists the [stratum, level, signature, pair] breaking it.
    def bilevel_breaks() -> list[list]:
        b2 = counting.classify_levels(real_forms.get_class("M-1-connected"), 1)
        return [[s, r.level, r.signature, r.pair_coeff]
                for s, strat in ((2, b2), (4, rows[5]())) for r in strat
                if (r.bilevel[0] + r.bilevel[1]) % 4 != r.qhat]

    return checks + [_Check("table5_bilevel_rule", "table5/bilevel", ENUMERATED,
                            ("M-1-connected",), lambda: ([], bilevel_breaks()))]


def _table6_checks(col: str) -> list[_Check]:
    cs = golden.TABLE6_PAIRS[col]
    checks = [_Check(f"table6:{col}:{row}", f"table6/{col}/{row}", _provenance(row), cs,
                     lambda i=i, row=row: (golden.TABLE6[col][i], _table6_value(col, row)))
              for i, row in enumerate(golden.TABLE6_ROWS)]
    # Each side's c2 row against the closed form in its rank (one side if both
    # coincide); four_sum checks the c4 row, and c0 is the closed form itself.
    for side, cid in zip(("plus", "minus"), dict.fromkeys(cs)):
        row = f"c2_{side}"
        checks.append(_Check(f"table6_form_c2:{cid}", "table6/margin-c2", _provenance(row), (cid,),
                             lambda cid=cid, row=row: (
                                 golden.ROW_FORMS["c2"](real_forms.get_class(cid).rank),
                                 _table6_value(col, row))))
    return checks


def _cross_model_checks(c: real_forms.DeformationClass) -> list[_Check]:
    # The code's signed sums against those of q vanishing on the class's simple roots.
    return [_Check(f"cross_model_{what}:{c.id}", "code-vs-basis", ENUMERATED, (c.id,),
                   lambda k=k: (counting.signed_sum(c, k), counting.signed_sum(c, k, (2,) * c.rank)))
            for what, k in (("roots", 1), ("four", 2))]


def _property_checks() -> list[_Check]:
    # The two properties no other record decides, each run by its own thunk and
    # looked up when run; the other seven of properties.run_all are tier-1 tests.
    def counts(name: str) -> tuple[list[int], list[int]]:
        res = {"cremona_compatibility": properties.cremona_compatibility,
               "box_scan_oracle": properties.box_scan_oracle}[name]()
        return [golden.PROPERTY_INSTANCES[name], 0], [res.instances, res.failures]

    return [_Check(f"property:{name}", f"property/{name}", ENUMERATED, (),
                   lambda name=name: counts(name))
            for name in golden.PROPERTY_INSTANCES]


def _checks() -> list[_Check]:
    """Every check of the full report, in report order; none is run here."""
    classes = real_forms.deformation_classes()
    return [
        *_structure_checks(), *_polynomial_checks(),
        *(ch for c in classes for ch in _class_checks(c)),
        *(ch for c, d in real_forms.bertini_pairs() for ch in _pair_checks(c, d)),
        *_table_checks(),
        *(ch for col in golden.TABLE6 for ch in _table6_checks(col)),
        *(ch for c in classes if c.code is not None for ch in _cross_model_checks(c)),
        *_property_checks(),
    ]


def build_records(scope: str = "all") -> list[VerificationRecord]:
    """Verification records; a class-id scope keeps the checks naming that class."""
    checks = _checks()
    if scope != "all":
        real_forms.get_class(scope)  # unknown ids raise here
        checks = [ch for ch in checks if scope in ch.classes]
    return [ch.record() for ch in checks]


def summarize(records: list[VerificationRecord]) -> dict[str, int]:
    failed = sum(not r.passed for r in records)
    return {"total": len(records), "passed": len(records) - failed, "failed": failed}
