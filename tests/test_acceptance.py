"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass line once its assertions hold, so a verbose run
reads as a checklist.
"""

import math
import re
from pathlib import Path

import pytest

from dp1 import counting, golden, pin, properties, real_forms, report, wallcross
from dp1.lattice import enumerate_vectors
from dp1.roots import root_system_type


@pytest.fixture(scope="module")
def records():
    return report.build_records("all")


def _ok(n, text):
    print(f"criterion {n}: PASS - {text}")


def _by_name(records, prefix):
    return [r for r in records if r.name.startswith(prefix)]


def test_criterion_1_cardinalities():
    e8 = real_forms.lambda_basis("M-connected")
    assert len(enumerate_vectors(e8, -2)) == 240
    assert len(enumerate_vectors(e8, -4)) == 2160
    e7 = real_forms.get_class("M-1-connected")
    assert len(counting.b_classes(e7, 2).vs) == 756
    for cid, m in (("M-4", 4), ("M-3-split", 3), ("M-2-split", 2), ("M-1-split", 1)):
        lat = real_forms.lambda_basis(cid)
        assert len(enumerate_vectors(lat, -4)) == 4 * math.comb(m, 2)
    d4 = real_forms.lambda_basis("M-2-I-a")
    assert len(enumerate_vectors(d4, -4)) == 24
    _ok(1, "cardinalities 240 / 2160 / 756 / 24 / 24 / 4*C(4-k,2)")


def _rows_match(rows, expected):
    got = sorted((r.level, r.signature, r.pair_coeff, r.count, r.qhat) for r in rows)
    want = sorted(expected)
    assert got == want


def test_criterion_2_tables_row_for_row():
    e8 = real_forms.get_class("M-connected")
    e7 = real_forms.get_class("M-1-connected")
    _rows_match(counting.classify_roots(e8), golden.TABLE2)
    _rows_match(counting.classify_levels(e8, 1), golden.TABLE3)
    rows4 = counting.classify_levels(e8, 2)
    _rows_match(rows4, golden.TABLE4)
    assert sum(r.count for r in rows4) == 2160
    rows5 = counting.classify_levels(e7, 2)
    _rows_match(rows5, golden.TABLE5)
    assert sum(r.count for r in rows5) == 756
    _ok(2, "tables 2-5 reproduced row for row (sums 240 / 240 / 2160 / 756)")


def test_criterion_3_line_identities(all_classes):
    for c in all_classes:
        assert counting.signed_sum(c, 1) == 2 * c.rank
    for a, b in real_forms.bertini_pairs():
        assert counting.signed_sum(a, 1) + counting.signed_sum(b, 1) == 16
    _ok(3, "root sums 2r, pair sums 16")


def test_criterion_4_four_vector_sums(all_classes):
    named = {"M-connected": 112, "M-1-connected": 84, "M-2-connected": 60,
             "M-3-connected": 40, "M-2-I-a": 24, "M-2-I-b": 24}
    for cid, want in named.items():
        assert counting.c4_total(real_forms.get_class(cid)) == want
    for c in all_classes:
        assert counting.c4_total(c) == 2 * c.rank * (c.rank - 1)
    _ok(4, "deep-stratum sums 112 / 84 / 60 / 40 / 24 and 2r(r-1) throughout")


def test_criterion_5_table6_grid():
    for col in golden.TABLE6:
        plus, minus = (real_forms.get_class(i) for i in golden.TABLE6_PAIRS[col])
        actual = (counting.c2_total(plus), counting.c2_total(minus),
                  counting.c4_total(plus), counting.c4_total(minus),
                  counting.c0_total(plus), counting.c0_total(minus))
        assert actual == golden.TABLE6[col], col
    for c in real_forms.deformation_classes():
        r = c.rank
        assert counting.c2_total(c) == 4 * r * (4 - r)
        assert counting.c4_total(c) == 2 * r * (r - 1)
        assert counting.c0_total(c) == 2 * (r - 3) * (r - 4) + 6
    _ok(5, "all 36 grid cells and the three closed forms")


def test_criterion_6_totals(all_classes):
    for c in all_classes:
        assert counting.signed_total(c) == 30
    for a, _ in real_forms.bertini_pairs():
        assert counting.pair_signed_total(a) == 96
    for r in range(9):
        c0 = 2 * (r - 3) * (r - 4) + 6
        c2 = 4 * r * (4 - r)
        c4 = 2 * r * (r - 1)
        assert c0 + c2 + c4 == 30
        rd = 8 - r
        assert c2 + 2 * c4 + 4 * rd * (4 - rd) + 2 * (2 * rd * (rd - 1)) == 96
    _ok(6, "totals 30 (11 classes), 96 (7 pairs), identities for r = 0..8")


def test_criterion_7_wall_crossing(records, all_classes):
    # One splitting table, checked on E8's strata; one balance table per class
    # with at least one vanishing root.
    for prefix, n in (("splitting_table", 1), ("delta_table:", 10)):
        recs = _by_name(records, prefix)
        assert len(recs) == n
        assert all(r.passed for r in recs), [r.name for r in recs if not r.passed]
    # Spot re-verification straight from the library, one class per model kind.
    for cid in ("M-connected", "M-2-connected"):
        c = real_forms.get_class(cid)
        dt = wallcross.delta_table(c, wallcross.vanishing_roots(c)[0])
        assert dt == wallcross.delta_expected(c)
        assert dt.balance == 12
        assert dt.orth == 2 * (c.rank - 1)
    _ok(7, "splitting tables, orthogonal sums 2(r-1), cancellations, balance 12")


def test_criterion_8_property_suites():
    results = properties.run_all()
    assert [r.name for r in results] == [
        "quadratic_law_code", "quadratic_law_basis", "reflection_properties",
        "minus_k_value_all_codes", "cremona_compatibility", "weyl_basis_robustness",
        "enumeration_closure", "box_scan_oracle", "alpha_qhat_consistency"]
    for res in results:
        assert res.passed, res
    assert sum(r.instances for r in results) >= 1000
    randomized = {"quadratic_law_code", "quadratic_law_basis", "reflection_properties",
                  "alpha_qhat_consistency"}
    for res in results:
        if res.name in randomized:
            assert res.instances >= 1000, res.name
    _ok(8, f"{sum(r.instances for r in results)} property instances, 0 failures")


def test_criterion_9_structural_checks(all_classes):
    for c in all_classes:
        comp = real_forms.orthogonal_complement(real_forms.lambda_basis(c.id))
        assert root_system_type(comp) == real_forms.get_class(c.bertini_dual_id).lambda_type
    sat = real_forms.saturate(real_forms.lambda_basis("M-4"))
    assert len(enumerate_vectors(sat, -2)) == 8
    assert min(pin.reachable_codes(pin.Code((1, 1, 1, 1, 1, 3, 3, 3, 3)))) == (1,) * 9
    assert (3,) * 7 in pin.reachable_codes(pin.Code((1, 1, 1, 1, 3, 3, 3)))
    _ok(9, "complement types, 4A1 saturation = 8 roots, code normalization")


def test_full_report_is_green(records):
    summary = report.summarize(records)
    assert summary["failed"] == 0, [r.name for r in records if not r.passed]
    print(f"verification report: {summary['passed']}/{summary['total']} records pass")


def test_readme_states_the_record_count(records):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"The full `verify` report has (\d+) records", readme)
    assert stated and int(stated.group(1)) == len(records)


def test_record_names_are_unique(records):
    # Reports are compared record by record, keyed on the name.
    names = [r.name for r in records]
    assert len(set(names)) == len(names)
