import pytest

from conftest import clear_model_caches, corrupt_4a1_embedding, model_caches, vanishing_qhat
from dp1 import counting, golden, lattice, pin, properties, real_forms, report, wallcross
from dp1.counting import (
    TableRow,
    b_classes,
    c0_total,
    c2_total,
    c4_total,
    classify_levels,
    classify_roots,
    count_report,
    lattice_signed_sum,
    pair_signed_total,
    sign_of,
    signed_sum,
    signed_total,
)
from dp1.lattice import MINUS_2K, LatticeError, enumerate_coordinates
from dp1.pin import NEGATIVE_CODE, POSITIVE_CODE, Code, qhat_code
from dp1.real_forms import get_class, lambda_basis
from dp1.report import build_records

E8 = get_class("M-connected")
E7 = get_class("M-1-connected")


def test_b_class_cardinalities():
    assert len(b_classes(E8, 1)) == 240
    assert len(b_classes(E8, 2)) == 2160
    assert len(b_classes(E7, 2)) == 756
    assert b_classes(get_class("M-split"), 1) == ()
    assert b_classes(get_class("M-split"), 2) == ()


def test_b0_is_minus_2k(all_classes):
    for c in all_classes:
        (b,) = b_classes(c, 0)
        assert b.alpha == MINUS_2K and b.qhat == 0 and b.stratum == 0


def test_b_class_invariants():
    for b in b_classes(E8, 2)[:100]:
        assert b.alpha.degree == 2
        assert b.alpha.square == 0
        assert b.qhat % 2 == 0
        assert qhat_code(POSITIVE_CODE, b.alpha) == b.qhat


def test_signed_sums_match_rank_forms(all_classes):
    for c in all_classes:
        assert signed_sum(c, 1) == 2 * c.rank
        assert signed_sum(c, 2) == 2 * c.rank * (c.rank - 1)


def test_named_four_sums():
    assert c4_total(E8) == 112
    assert c4_total(E7) == 84
    assert c4_total(get_class("M-2-connected")) == 60
    assert c4_total(get_class("M-3-connected")) == 40
    assert c4_total(get_class("M-2-I-a")) == 24


def test_four_a1_line_sum():
    c = get_class("M-4")
    assert signed_sum(c, 1) == 8
    assert all(b.qhat == 0 for b in b_classes(c, 1))


def test_c2_and_c0_values():
    assert c2_total(E8) == -128
    assert c2_total(get_class("M-2-connected")) == -48
    assert c2_total(get_class("M-4")) == 0
    assert c0_total(E8) == 46
    assert c0_total(E7) == 30
    assert c0_total(get_class("M-4")) == 6


def test_totals(all_classes):
    for c in all_classes:
        assert signed_total(c) == 30
        assert pair_signed_total(c) == 96


def test_pair_total_decomposition_examples():
    assert c2_total(E8) + 2 * c4_total(E8) == 96  # dual side contributes 0
    m4 = get_class("M-4")
    assert c2_total(m4) + 2 * c4_total(m4) == 48  # self-dual: doubled to 96


def test_sign_of_rejects_odd():
    with pytest.raises(LatticeError):
        sign_of(1)


def test_lattice_signed_sum_matches_the_strata_and_rejects_odd_values():
    lat = lambda_basis("M-2-connected")
    d6 = get_class("M-2-connected")
    vanishing = (2,) * lat.rank
    assert [lattice_signed_sum(lat, k, vanishing) for k in (1, 2)] == [
        signed_sum(d6, 1), signed_sum(d6, 2)]
    # A twist of 1 on a simple root b gives q(b) = -2 + 1, odd: no sign exists.
    with pytest.raises(LatticeError):
        lattice_signed_sum(lat, 1, (1,) + vanishing[1:])


def test_classify_roots_rows():
    rows = classify_roots(E8)
    assert [(r.level, r.count, r.qhat) for r in rows] == [
        (0, 56, 2), (1, 112, 0), (2, 56, 2), (3, 16, 0)]


def test_classify_levels_b2_rows():
    rows = classify_levels(E8, 1)
    assert [(r.level, r.count, r.qhat) for r in rows] == [
        (3, 8, 0), (4, 28, 2), (5, 56, 0), (6, 56, 2), (7, 56, 0), (8, 28, 2), (9, 8, 0)]


def test_classify_levels_b4_shape():
    rows = classify_levels(E8, 2)
    assert len(rows) == 15
    assert sum(r.count for r in rows) == 2160
    triples = {(r.level, r.count, r.qhat) for r in rows}
    assert (6, 420, 0) in triples
    assert (11, 8, 2) in triples


def test_classify_levels_e7_bilevel():
    rows = classify_levels(E7, 2)
    assert len(rows) == 25
    assert sum(r.count for r in rows) == 756
    for r in rows:
        assert isinstance(r, TableRow)
        a, b = r.bilevel
        assert (a + b) % 4 == r.qhat


def test_classify_levels_aggregate_for_basis_classes():
    # A class without a code has no level rows; its stratum is summed whole.
    d6 = get_class("M-2-connected")
    with pytest.raises(LatticeError):
        classify_levels(d6, 2)
    assert (len(b_classes(d6, 2)), signed_sum(d6, 2)) == (252, 60)


def test_classify_levels_rejects_bad_stratum():
    with pytest.raises(LatticeError):
        classify_levels(E8, 0)


def test_count_report_consistency(all_classes):
    assert count_report(E8) == ([[240, 16], [2160, 112]],) * 2
    assert count_report(E7) == ([[126, 14], [756, 84]],) * 2
    for c in all_classes:
        assert len(b_classes(c, 0)) == 1
        if c.code is None:
            with pytest.raises(LatticeError):
                count_report(c)


def test_model_qhat_consistency_between_alpha_and_v():
    for b in b_classes(E7, 2)[:200]:
        assert qhat_code(NEGATIVE_CODE, b.alpha) == b.qhat


def test_model_qhat_on_basis_class():
    c = get_class("M-3-connected")
    lat = lambda_basis(c.id)
    for b in b_classes(c, 1)[:20]:
        assert vanishing_qhat(lat, b.v) == b.qhat


def test_twists_on_simple_roots():
    assert POSITIVE_CODE.twist == (0,) + (2,) * 8
    assert NEGATIVE_CODE.twist == (2,) + (4,) * 6 + (2,)
    assert counting.twist(E8) == (4,) * 7 + (2,)
    assert counting.twist(E7) == (4,) * 6 + (2,)
    for cid in ("M-2-connected", "M-4", "M-split"):
        c = get_class(cid)
        assert counting.twist(c) == (2,) * c.rank


GLOBAL = None  # a fault scope: only the checks that name no class


def _records(scope):
    if scope is GLOBAL:
        return [ch.record() for ch in report._checks() if not ch.classes]
    return build_records(scope)


def _failed_records(scope):
    recs = _records(scope)
    return len(recs), {r.name for r in recs if not r.passed}


def test_zeroed_d6_twist_entry_fails_the_d6_sums(fresh_caches, monkeypatch):
    d6 = get_class("M-2-connected")
    good = counting.twist

    def bad(c):
        t = good(c)
        return (0,) + t[1:] if c.id == d6.id else t

    monkeypatch.setattr(counting, "twist", bad)
    assert (signed_sum(d6, 1), signed_sum(d6, 2)) == (4, -4)
    assert _failed_records(d6.id) == (17, {
        "root_sum:M-2-connected", "four_sum:M-2-connected", "total_30:M-2-connected",
        "pair_line_sum_16:M-2-connected", "pair_total_96:M-2-connected",
        "table6:M-2:c2_plus", "table6:M-2:c4_plus", "table6_form_c2:M-2-connected",
        "delta_table:M-2-connected", "d6_four_split"})


def _shift_row_form(row, by=1):
    def patch(monkeypatch):
        form = golden.ROW_FORMS[row]
        monkeypatch.setitem(golden.ROW_FORMS, row, lambda r: form(r) + by)
    return patch


def _shift_c2_down_c4_up(monkeypatch):
    # c0 + c2 + c4 keeps its value; c2 + 2 c4 does not.
    _shift_row_form("c2", -1)(monkeypatch)
    _shift_row_form("c4")(monkeypatch)


def _bump_table6_c4_plus(monkeypatch):
    cells = list(golden.TABLE6["M-4"])
    cells[golden.TABLE6_ROWS.index("c4_plus")] += 1
    monkeypatch.setitem(golden.TABLE6, "M-4", tuple(cells))


def _bump_four_vector_count(monkeypatch):
    monkeypatch.setitem(golden.FOUR_VECTOR_COUNTS, "4A1", golden.FOUR_VECTOR_COUNTS["4A1"] + 1)


def _replace_class(cid, **changes):
    def patch(monkeypatch):
        moved = get_class(cid)._replace(**changes)
        monkeypatch.setitem(real_forms._BY_ID, cid, moved)
        monkeypatch.setattr(real_forms, "_CLASSES",
                            tuple(moved if c.id == cid else c for c in real_forms._CLASSES))
    return patch


def _drop_m3_split(monkeypatch):
    # M-3-connected still finds its dual by id, so the pairs stay 7.
    monkeypatch.setattr(real_forms, "_CLASSES",
                        tuple(c for c in real_forms._CLASSES if c.id != "M-3-split"))


def _m3_pair_self_dual(monkeypatch):
    # Still an involution, with 5 fixed classes instead of 3: 8 pairs.
    _replace_class("M-3-connected", bertini_dual_id="M-3-connected")(monkeypatch)
    _replace_class("M-3-split", bertini_dual_id="M-3-split")(monkeypatch)


def _bump_root_count(monkeypatch):
    monkeypatch.setitem(golden.ROOT_COUNTS, "4A1", golden.ROOT_COUNTS["4A1"] + 1)


def _identity_cremona_move(monkeypatch):
    # Every triple leaves the code alone; the swaps still move it.
    good = pin.apply_move
    monkeypatch.setattr(pin, "apply_move", lambda residues, move: (
        residues if move[0] == "cremona" else good(residues, move)))


def _drop_last_rank_2_vector(monkeypatch):
    good = lattice._search

    def bad(gram, norm):
        out = good(gram, norm)
        return out[:-1] if len(gram) == 2 else out

    monkeypatch.setattr(lattice, "_search", bad)


def _box_scan_without_instances(monkeypatch):
    monkeypatch.setattr(properties, "box_scan_oracle",
                        lambda: properties.PropertyResult("box_scan_oracle", 0, 0))


def _empty_splitting_4_2(monkeypatch):
    monkeypatch.setitem(golden.SPLITTING_TABLE, (4, 2), ())


def _multiplicity_capped_at_1(monkeypatch):
    monkeypatch.setattr(wallcross, "MAX_MULTIPLICITY", 1)


def _table7_4_1_is_1(monkeypatch):
    monkeypatch.setattr(golden, "TABLE7", tuple(
        (label, sig, (lambda r, rd: 1) if label == "4,1" else f)
        for label, sig, f in golden.TABLE7))


def _d6_four_split_157(monkeypatch):
    monkeypatch.setitem(golden.D6_FOUR_SPLIT, 0, 157)


def _euler_char_plus_2(monkeypatch):
    good = real_forms.DeformationClass.euler_char.fget
    monkeypatch.setattr(real_forms.DeformationClass, "euler_char", property(lambda c: good(c) + 2))


# Kernel faults on D6, injected through the names counting imports so that cleared
# caches rebuild the faulty strata.  Coordinates are on D6's canonical simple roots.
D6 = get_class("M-2-connected")


def _d6_four_coords():
    return enumerate_coordinates(lambda_basis(D6.id), -4)


def _drop_first_d6_four_vector(monkeypatch):
    good = counting.enumerate_coordinates
    first = _d6_four_coords()[0]
    dropped = {first, tuple(-n for n in first)}

    def bad(lat, norm):
        out = good(lat, norm)
        return [x for x in out if x not in dropped] if lat == lambda_basis(D6.id) else out

    monkeypatch.setattr(counting, "enumerate_coordinates", bad)


def _perturb_evaluator(shift):
    def patch(monkeypatch):
        good = counting.qhat_from_coordinates
        monkeypatch.setattr(counting, "qhat_from_coordinates", lambda coords, square, twist: (
            good(coords, square, twist) + shift(coords)) % 4)
    return patch


def _flip_sixth_d6_four_vector(monkeypatch):
    sixth = _d6_four_coords()[5]
    _perturb_evaluator(lambda coords: 2 * (coords == sixth))(monkeypatch)


D6_FOUR = {f"{name}:M-2-connected" for name in (
    "delta_table", "four_sum", "pair_total_96", "total_30")} | {
    "d6_four_split", "table6:M-2:c4_plus"}

E7_SUMS = {f"{name}:M-1-connected" for name in (
    "root_sum", "four_sum", "delta_table", "table6_form_c2",
    "cross_model_roots", "cross_model_four", "pair_line_sum_16", "pair_total_96")}

# Fault-injection matrix: (scope, perturbation, the exact set of failing records).
FAULTS = {
    "row_form_c4_plus_1": ("M-4", _shift_row_form("c4"), {"four_sum:M-4"}),
    "row_form_c0_plus_1": ("M-4", _shift_row_form("c0"), {
        "table6:M-4:c0_plus", "table6:M-4:c0_minus", "total_30:M-4"}),
    "row_form_c2_plus_1": ("M-4", _shift_row_form("c2"), {"table6_form_c2:M-4"}),
    "table6_c4_plus_cell_plus_1": ("M-4", _bump_table6_c4_plus, {"table6:M-4:c4_plus"}),
    "four_vector_count_4a1_plus_1": ("M-4", _bump_four_vector_count, {"card_four_vectors:M-4"}),
    # The complement type is checked by its record alone, not by the lattice constructor.
    "m4_dual_m2_i_a": ("M-4", _replace_class("M-4", bertini_dual_id="M-2-I-a"), {
        "complement_type:M-4"}),
    # A dual of the wrong rank also breaks Table 7, whose formulas read the dual's rank.
    "m4_dual_m3_split": ("M-4", _replace_class("M-4", bertini_dual_id="M-3-split"), {
        "complement_type:M-4", "delta_table:M-4", "pair_line_sum_16:M-4", "pair_total_96:M-4"}),
    # Same signed sums, different q per row: only the row-level records can see it.
    "e8_cremona_equivalent_code": (E8.id, _replace_class(
        E8.id, code=Code((1, 1, 1, 1, 1, 3, 3, 3, 3))), {"table2_rows", "table3_rows", "table4_rows"}),
    "e7_cremona_equivalent_code": (E7.id, _replace_class(E7.id, code=Code((1, 1, 1, 1, 3, 3, 3))), {
        "table5_rows", "table5_bilevel_rule"}),
    # The other orbit of length-7 codes: its sums differ, but c0 + c2 + c4 is still 30.
    "e7_other_orbit_code": (E7.id, _replace_class(E7.id, code=Code((3, 1, 1, 1, 1, 1, 1))), E7_SUMS | {
        "table6:M-1:c2_plus", "table6:M-1:c4_plus", "table5_rows", "table5_bilevel_rule"}),
    # The root count is stated by its record alone, not by the lattice constructor.
    "root_count_4a1_plus_1": ("M-4", _bump_root_count, {"card_roots:M-4"}),
    "e8_cremona_move_is_identity": (E8.id, _identity_cremona_move, {"normalize_positive_seed"}),
    "e7_cremona_move_is_identity": (E7.id, _identity_cremona_move, {"normalize_negative_seed"}),
    # The splittings are checked once, on E8's strata: E8 alone reaches every key.
    "splitting_4_2_empty": (E8.id, _empty_splitting_4_2, {"splitting_table"}),
    # The r = 2 splittings of keys (2, 2) and (4, 2) drop out of the filters, not the table.
    "splitting_multiplicity_1": (E8.id, _multiplicity_capped_at_1, {"splitting_table"}),
    "table7_4_1_is_1": ("M-4", _table7_4_1_is_1, {"delta_table:M-4"}),
    "d6_four_split_0_is_157": (D6.id, _d6_four_split_157, {"d6_four_split"}),
    # The cited Euler input chi - 1, read once by c2_total and by d22.
    "euler_char_plus_2": (D6.id, _euler_char_plus_2, {
        f"{name}:M-2-connected" for name in (
            "delta_table", "pair_total_96", "table6_form_c2", "total_30")} | {
        "table6:M-2:c2_plus", "table6:M-2:c2_minus"}),
    # Stratum closure and the reflection law, checked once per class on its simple roots.
    "d6_four_vector_pair_dropped": (D6.id, _drop_first_d6_four_vector, D6_FOUR | {
        "card_four_vectors:M-2-connected"}),
    "d6_four_vector_q_flipped": (D6.id, _flip_sixth_d6_four_vector, D6_FOUR),
    "non_quadratic_evaluator": (D6.id, _perturb_evaluator(
        lambda coords: 2 * (coords[0] % 2) * (coords[1] % 2)), {
        f"{name}:M-2-connected" for name in ("delta_table", "pair_total_96")} | {
        "table6:M-2:c4_minus"}),
    # The records that name no class, built without the class checks.
    "class_list_drops_m3_split": (GLOBAL, _drop_m3_split, {"classes_count"}),
    "m3_pair_self_dual": (GLOBAL, _m3_pair_self_dual, {"pairs_count"}),
    "m3_split_self_dual": (GLOBAL, _replace_class("M-3-split", bertini_dual_id="M-3-split"), {
        "dual_involutive"}),
    "row_form_c0_plus_1_globally": (GLOBAL, _shift_row_form("c0"), {"identity_total_30_poly"}),
    "row_forms_c2_minus_1_c4_plus_1": (GLOBAL, _shift_c2_down_c4_up, {"identity_pair_96_poly"}),
    # The two properties verify keeps.  In the full scope the identity move also
    # fails both normalize_*_seed records.
    "cremona_move_is_identity_globally": (GLOBAL, _identity_cremona_move, {
        "property:cremona_compatibility"}),
    "rank_2_search_drops_its_last_vector": (GLOBAL, _drop_last_rank_2_vector, {
        "property:box_scan_oracle"}),
    # A property that checks nothing fails: its instance count is stated in golden.
    "box_scan_without_instances": (GLOBAL, _box_scan_without_instances, {
        "property:box_scan_oracle"}),
}


# The reflection check's text for the faults it catches, taken before it became a
# packed pass: the exact walk names the first failing vector and simple root.
REFLECTION_ERRORS = {
    "d6_four_vector_pair_dropped": "error: LatticeError: reflection left the stratum: "
                                   "(-2; 0,0,0,2,1,1,1,1) by (1; -1,-1,-1,0,0,0,0,0)",
    "d6_four_vector_q_flipped": "error: LatticeError: reflection law failed at "
                                "(-3; 0,1,2,2,1,1,1,1) by (0; 0,1,-1,0,0,0,0,0)",
    "non_quadratic_evaluator": "error: LatticeError: reflection law failed at "
                               "(-3; 1,1,2,1,1,1,1,1) by (1; -1,-1,-1,0,0,0,0,0)",
}


@pytest.mark.parametrize("fault", list(REFLECTION_ERRORS))
def test_the_reflection_check_names_the_first_failing_vector(fresh_caches, monkeypatch, fault):
    scope, perturb, _ = FAULTS[fault]
    perturb(monkeypatch)
    actual = {r.name: r.actual for r in _records(scope) if not r.passed and isinstance(r.actual, str)}
    assert actual == {"delta_table:M-2-connected": REFLECTION_ERRORS[fault]}


def test_clear_model_caches_finds_every_cache():
    # A cache the faults below do not clear would hand them the green tables.
    assert {f"{fn.__module__}.{fn.__qualname__}" for fn in model_caches()} == {
        "dp1.real_forms.lambda_basis", "dp1.real_forms._kernel_sublattice",
        "dp1.counting.b_classes_cached", "dp1.wallcross.vanishing_roots_cached",
        "dp1.wallcross.q_index_cached", "dp1.wallcross.packed_strata", "dp1.lattice._search"}


def test_full_build_searches_once_per_gram_and_norm(fresh_caches):
    # 42 distinct (gram, norm) keys reach enumerate_coordinates; the rank-0 one
    # returns before the cache, so the other 41 are each searched once.
    build_records("all")
    info = lattice._search.cache_info()
    assert (info.hits, info.misses, info.currsize) == (23, 41, 41)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_injection_matrix(fresh_caches, monkeypatch, fault):
    scope, perturb, failing = FAULTS[fault]
    perturb(monkeypatch)
    assert _failed_records(scope)[1] == failing


def test_every_record_family_has_a_fault():
    # The family of a record is its name before the first ":".
    caught = {name.split(":")[0] for _, _, failing in FAULTS.values() for name in failing}
    assert {r.name for r in build_records("all") if r.name.split(":")[0] not in caught} == set()


def test_a_raising_property_fails_only_its_own_record(monkeypatch):
    # Each property record runs its own property, never the whole suite.
    suite_runs = []
    run_all = properties.run_all

    def broken():
        raise ValueError("box scan broke")

    def counted(*args):
        suite_runs.append(args)
        return run_all(*args)

    monkeypatch.setattr(properties, "box_scan_oracle", broken)
    monkeypatch.setattr(properties, "run_all", counted)
    records = {r.name: r for r in build_records("all")}
    assert {name for name, r in records.items() if not r.passed} == {"property:box_scan_oracle"}
    assert records["property:box_scan_oracle"].actual == "error: ValueError: box scan broke"
    assert records["property:cremona_compatibility"].passed
    assert suite_runs == []


def test_scoped_build_groups_each_level_stratum_once(fresh_caches, monkeypatch):
    calls = []
    group = counting.classify_levels

    def counted(c, k):
        calls.append((c.id, k))
        return group(c, k)

    monkeypatch.setattr(counting, "classify_levels", counted)
    build_records(E7.id)
    assert sorted(calls) == [(E7.id, 1), (E7.id, 2)]


def _cap_enumeration_depth(monkeypatch):
    monkeypatch.setenv("DP1_MAX_ENUM_DEPTH", "3")


NAME_FAULTS = {fault: row[:2] for fault, row in FAULTS.items()} | {
    "corrupted_4a1_embedding": ("M-4", corrupt_4a1_embedding),
    "depth_cap_3": ("M-4", _cap_enumeration_depth),
}


@pytest.mark.parametrize("fault", list(NAME_FAULTS))
def test_a_fault_changes_which_records_fail_not_which_exist(fresh_caches, monkeypatch, fault):
    scope, perturb = NAME_FAULTS[fault]
    green = [r.name for r in _records(scope)]
    perturb(monkeypatch)
    clear_model_caches()
    faulted = _records(scope)
    assert [r.name for r in faulted] == green
    assert not all(r.passed for r in faulted)
