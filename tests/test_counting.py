import random
import re
import sys
from collections import Counter
from operator import neg

import pytest

from conftest import (
    break_the_enumerator,
    clear_model_caches,
    corrupt_4a1_embedding,
    model_caches,
    unimodular,
    vanishing_qhat,
)
from dp1 import counting, golden, lattice, pin, properties, real_forms, report, roots, wallcross
from dp1.counting import (
    TableRow,
    alpha_of,
    b_classes,
    c0_total,
    c2_total,
    c4_total,
    classify_levels,
    classify_roots,
    count_report,
    pair_signed_total,
    sign_of,
    signed_sum,
    signed_total,
    stratum,
)
from dp1.lattice import MINUS_2K, K, LatticeError, PicClass, Sublattice, enumerate_coordinates
from dp1.pin import NEGATIVE_CODE, POSITIVE_CODE, Code, qhat_code
from dp1.real_forms import get_class, lambda_basis
from dp1.report import build_records

E8 = get_class("M-connected")
E7 = get_class("M-1-connected")


def test_b_class_cardinalities():
    assert len(b_classes(E8, 1).vs) == 240
    assert len(b_classes(E8, 2).vs) == 2160
    assert len(b_classes(E7, 2).vs) == 756
    for k in (1, 2):
        s = b_classes(get_class("M-split"), k)
        assert (s.vs, s.qs) == ((), ())


def test_b0_is_minus_2k(all_classes):
    for c in all_classes:
        s = b_classes(c, 0)
        ((v,), (q,)) = s.vs, s.qs
        assert alpha_of(v) == MINUS_2K.coeffs and q == 0 and s.k == 0


def test_each_stratum_holds_the_packed_columns_of_its_vectors(all_classes):
    # The search hands its packed columns to the stratum; packing the vectors again
    # must give the same ints, in every class and stratum.
    for c in all_classes:
        for k in (0, 1, 2):
            s = b_classes(c, k)
            assert s.k == k and len(s.vs) == len(s.qs)
            assert s.columns == stratum(k, s.vs, s.qs).columns


def test_b_class_invariants():
    s = b_classes(E8, 2)
    for v, q in list(zip(s.vs, s.qs))[:100]:
        alpha = PicClass(alpha_of(v))
        assert -alpha.dot(K) == 2
        assert alpha.square == 0
        assert q % 2 == 0
        assert qhat_code(POSITIVE_CODE, alpha) == q


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
    assert all(q == 0 for q in b_classes(c, 1).qs)


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


def test_twisted_signed_sum_matches_the_strata_and_rejects_odd_values():
    d6 = get_class("M-2-connected")
    vanishing = (2,) * d6.rank
    assert [signed_sum(d6, k, vanishing) for k in (1, 2)] == [signed_sum(d6, 1), signed_sum(d6, 2)]
    # The cross-model records: the code's sums equal those of q vanishing on the simple roots.
    for c in (E8, E7):
        assert [signed_sum(c, k, (2,) * c.rank) for k in (1, 2)] == [signed_sum(c, 1), signed_sum(c, 2)]
    # A twist of 1 on a simple root b gives q(b) = -2 + 1, odd: no sign exists.
    with pytest.raises(LatticeError):
        signed_sum(d6, 1, (1,) + vanishing[1:])


def test_signed_sums_name_the_first_odd_value_in_stratum_order(monkeypatch):
    # Odd values 3 then 1 at two positions of D6's roots: both sums name the 3,
    # the first one met, not the smaller one.
    d6 = get_class("M-2-connected")
    odd = {3: 3, 7: 1}
    strata, evaluate = counting.b_classes, counting.qhat_columns

    def odd_strata(c, k):
        s = strata(c, k)
        return stratum(k, s.vs, tuple(odd.get(i, q) for i, q in enumerate(s.qs)))

    def odd_values(xs, square, twist):
        # The evaluator's output, with the odd values at the same vectors, in search order.
        return bytes(odd.get(i, q) for i, q in enumerate(evaluate(xs, square, twist)))

    monkeypatch.setattr(counting, "b_classes", odd_strata)
    with pytest.raises(LatticeError, match="odd quadratic value 3 on"):
        signed_sum(d6, 1)
    monkeypatch.undo()  # a cold stratum cache must not be built with odd values
    monkeypatch.setattr(counting, "qhat_columns", odd_values)
    with pytest.raises(LatticeError, match="odd quadratic value 3 on"):
        signed_sum(d6, 1, (2,) * d6.rank)


def test_a_value_other_than_0_and_2_is_summed_through_sign_of(monkeypatch):
    # The counted sum reads the values 0 and 2 alone; with any other value the stratum
    # is summed one value at a time through sign_of: 4 as 0, 6 as 2, and one odd
    # value among thousands still raises.
    d6 = get_class("M-2-connected")
    strata, want = counting.b_classes, [signed_sum(d6, k) for k in (1, 2)]

    def lifted(c, k):
        s = strata(c, k)
        return stratum(k, s.vs, tuple(q + 4 * (i % 2) for i, q in enumerate(s.qs)))

    monkeypatch.setattr(counting, "b_classes", lifted)
    assert {4, 6} <= set(lifted(d6, 2).qs)
    assert [signed_sum(d6, k) for k in (1, 2)] == want
    last_odd = lambda c, k: stratum(k, strata(c, k).vs, strata(c, k).qs[:-1] + (5,))
    monkeypatch.setattr(counting, "b_classes", last_odd)
    with pytest.raises(LatticeError, match="odd quadratic value 5 on"):
        signed_sum(d6, 2)


def _per_vector_qs(coords, square, twist):
    return tuple(pin.qhat_from_coordinates(x, square, twist) for x in coords)


def _residue_columns(coords):
    # Each coordinate column packed as its residues mod 4: exact for coordinates of any size.
    return lattice.Columns.pack(len(coords), [tuple(x % 4 for x in column) for column in zip(*coords)])


def test_the_column_evaluator_equals_the_per_vector_rule(fresh_caches, monkeypatch, all_classes):
    rng = random.Random("column evaluator")

    def twists(rank):  # entries negative or at least 4: unreduced, a lane would carry
        return [tuple(rng.randrange(-9, 10) for _ in range(rank)) for _ in range(3)]

    # Every nonempty stratum of the 11 classes, off the packed columns the search builds.
    for c in all_classes:
        lat = lambda_basis(c.id)
        for k in (1, 2):
            coords = enumerate_coordinates(lat, -2 * k)
            if not coords:
                continue
            assert b_classes(c, k).qs == _per_vector_qs(coords, -2 * k, counting.twist(c))
            xs = lat.pic_columns(coords)[0]
            for t in twists(lat.rank):
                got = pin.qhat_columns(xs, -2 * k, t)
                assert tuple(got) == _per_vector_qs(coords, -2 * k, t), (c.id, k, t)
                even = tuple(2 * (x // 2) for x in t)
                assert signed_sum(c, k, even) == sum(map(sign_of, _per_vector_qs(coords, -2 * k, even)))
    # Gram-changing bases, one with b_1 + 200 b_2 in place of b_1: its coordinates
    # pass a byte lane, and only the residue packing keeps them exact.
    widest = 0
    for c in [c for c in all_classes if c.rank > 1]:
        lat = lambda_basis(c.id)
        skew = [lat.from_coordinates((1, 200) + (0,) * (lat.rank - 2)), *lat.basis[1:]]
        rows = unimodular(random.Random(f"unimodular:{c.id}"), lat.rank)
        for moved in (Sublattice.span([lat.from_coordinates(tuple(row)) for row in rows]),
                      Sublattice.span(skew)):
            for k in (1, 2):
                coords = enumerate_coordinates(moved, -2 * k)
                widest = max(widest, *(max(map(abs, x)) for x in coords))
                for t in twists(lat.rank) + [(2,) * lat.rank]:
                    want = _per_vector_qs(coords, -2 * k, t)
                    got = pin.qhat_columns(_residue_columns(coords), -2 * k, t)
                    assert tuple(got) == want, (c.id, k, t)
                even = tuple(2 * (x // 2) for x in t)
                got = pin.qhat_columns(_residue_columns(coords), -2 * k, even)
                assert sum(map(sign_of, got)) == sum(map(sign_of, _per_vector_qs(coords, -2 * k, even)))
    assert widest > lattice.LANE
    # A packed wall-crossing stratum names its first odd value in stratum order, in
    # sign_of's words: the 3 at B^2's sixth class, not the 1 after it; the 1 in B^4.
    d6, strata = get_class("M-2-connected"), counting.b_classes
    odd = {1: {5: 3, 9: 1}, 2: {0: 1, 4: 3}}

    def odd_strata(c, k):
        s = strata(c, k)
        return stratum(k, s.vs, tuple(odd.get(k, {}).get(i, q) for i, q in enumerate(s.qs)))

    monkeypatch.setattr(wallcross, "b_classes", odd_strata)
    for k, first in ((1, 3), (2, 1)):
        with pytest.raises(LatticeError) as want:
            sign_of(first)
        with pytest.raises(LatticeError, match=f"^{re.escape(str(want.value))}$"):
            wallcross.packed_stratum(d6.id, k)


def test_alpha_columns_equal_alpha_of_per_vector(all_classes):
    # Off the packed columns on every stratum, with alpha_of as the per-vector
    # reference, and on edge rows at the lane bound |m| + |v_j| <= 127 of alpha_j =
    # m - v_j (m = 6 at h, -2 at each l): one past it raises, naming the bound.
    strata = [b_classes(c, k) for c in all_classes for k in (0, 1, 2)]
    strata += [stratum(1, (v,), (0,)) for v in ((-121,) + (0,) * 8, (0,) * 8 + (125,), (0,) * 8 + (-125,))]
    for s in strata:
        assert counting.alpha_columns(s).rows() == list(map(alpha_of, s.vs))
    for v in ((-122,) + (0,) * 8, (0,) * 8 + (126,), (0,) * 8 + (-126,)):
        with pytest.raises(LatticeError, match="^an alpha of B\\^2 may pass the lane bound 127$"):
            counting.alpha_columns(stratum(1, (v,), (0,)))
    with pytest.raises(LatticeError, match="^a packed value passes the lane bound 127$"):
        stratum(1, ((200,) + (0,) * 8,), (0,))


def test_a_non_real_stratum_vector_is_named_in_stratum_order(monkeypatch):
    # Two vectors of E7's B^2 lose realness (l7 != l8 in their alpha): the paired
    # columns differ, and the per-vector walk names the earlier one with
    # code_coordinates' message, as the loop over the stratum did.
    strata = counting.b_classes
    spoiled = {9: 1, 4: -1}

    def non_real(c, k):
        s = strata(c, k)
        vs = tuple(v[:8] + (v[8] + spoiled.get(i, 0),) for i, v in enumerate(s.vs))
        return stratum(k, vs, s.qs) if c.id == E7.id and k == 1 else s

    first = strata(E7, 1).vs[4]
    alpha = PicClass(alpha_of(first[:8] + (first[8] - 1,)))
    message = f"{alpha} is not real for a code with 1 imaginary pairs"
    monkeypatch.setattr(counting, "b_classes", non_real)
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        classify_levels(E7, 1)


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
    assert (len(b_classes(d6, 2).vs), signed_sum(d6, 2)) == (252, 60)


def test_classify_levels_rejects_bad_stratum():
    with pytest.raises(LatticeError):
        classify_levels(E8, 0)


def _sorted_signature_rows(c, k, read):
    """Table rows with each vector's signature a sorted tuple: the reference of the
    histogram rows of `counting._table_rows`."""
    code, s = c.code, counting.b_classes(c, k)
    counts = Counter((x[0], tuple(sorted(x[1 : code.n_real + 1], reverse=True)),
                      x[-1] if code.r == 1 else None, q)
                     for x, q in zip(pin.code_columns(code, read(s)).rows(), s.qs))
    rows = [TableRow(level, sig, pair, count, q) for (level, sig, pair, q), count in counts.items()]
    rows.sort(key=lambda t: (t.level, tuple(-s for s in t.signature), -(t.pair_coeff or 0), t.qhat))
    return rows


def _packed(vs):
    return lattice.Columns.pack(len(vs), list(zip(*vs)) or [()] * 9)


def _folded_roots(s):
    return _packed([max(v, tuple(map(neg, v))) for v in s.vs])


def _alpha_packed(s):
    return _packed(list(map(alpha_of, s.vs)))


def test_histogram_rows_equal_sorted_signature_rows():
    for c in (E8, E7):
        assert classify_roots(c) == _sorted_signature_rows(c, 1, _folded_roots)
        for k in (1, 2):
            rows = classify_levels(c, k)
            assert rows == _sorted_signature_rows(c, k, counting.alpha_columns)
            # Alphas packed from alpha_of per vector, as classify_roots packs its roots.
            assert counting._table_rows(c, k, _alpha_packed) == rows


def _spread(c, k, width, wide=()):
    """(vs, qs) of B^{2k} of c with each v's real coefficients moved by up to +-width
    (an imaginary pair's two by the same amount) and positions `wide` of the first
    vector set to 200, past a byte lane; qs drawn anew."""
    rng, s = random.Random(f"spread:{c.id}:{k}:{width}"), counting.b_classes(c, k)
    vs = []
    for v in s.vs:
        shift = [0] + [rng.randint(-width, width) for _ in range(8)]
        if c.code.r:
            shift[8] = shift[7]
        vs.append(tuple(map(sum, zip(v, shift))))
    vs[0] = tuple(200 if i in wide else x for i, x in enumerate(vs[0]))
    return tuple(vs), tuple(rng.randrange(4) for _ in vs)


def test_histogram_rows_off_coefficients_past_the_table_range(monkeypatch):
    # Today's real alpha coefficients lie in [-4, 0]: spread them to about +-60 on
    # byte lanes.  Past a byte lane (200 - 2) a stratum does not pack, and neither do
    # its alphas: the row builder reads byte lanes alone, so both raise, naming the bound.
    cases = [(c, k, width, wide) for c in (E8, E7) for k in (1, 2)
             for width, wide in ((60, ()), (3, (2,)), (30, (1, 7, 8)))]
    past = "^a packed value passes the lane bound 127$"
    for c, k, width, wide in cases:
        vs, qs = _spread(c, k, width, wide)
        if wide:
            with pytest.raises(LatticeError, match=past):
                stratum(k, vs, qs)
            bare = counting.Stratum(k, vs, qs, None, None)
            monkeypatch.setattr(counting, "b_classes", lambda cc, kk: bare)
            with pytest.raises(LatticeError, match=past):
                counting._table_rows(c, k, _alpha_packed)
            monkeypatch.undo()
            continue
        s = stratum(k, vs, qs)
        monkeypatch.setattr(counting, "b_classes", lambda cc, kk: s)
        values = {x for row in pin.code_columns(c.code, _alpha_packed(s)).rows()
                  for x in row[1 : c.code.n_real + 1]}
        assert min(values) < -4 and max(values) > 0
        rows = counting._table_rows(c, k, _alpha_packed)
        assert rows == _sorted_signature_rows(c, k, _alpha_packed), (c.id, k, width)
        assert sum(r.count for r in rows) == len(vs)
        assert classify_levels(c, k) == rows == _sorted_signature_rows(c, k, counting.alpha_columns)
        monkeypatch.undo()


def test_count_report_consistency(all_classes):
    assert count_report(E8) == ([[240, 16], [2160, 112]],) * 2
    assert count_report(E7) == ([[126, 14], [756, 84]],) * 2
    for c in all_classes:
        assert len(b_classes(c, 0).vs) == 1
        if c.code is None:
            with pytest.raises(LatticeError):
                count_report(c)


def test_model_qhat_consistency_between_alpha_and_v():
    s = b_classes(E7, 2)
    for v, q in list(zip(s.vs, s.qs))[:200]:
        assert qhat_code(NEGATIVE_CODE, PicClass(alpha_of(v))) == q


def test_model_qhat_on_basis_class():
    c = get_class("M-3-connected")
    lat = lambda_basis(c.id)
    s = b_classes(c, 1)
    for v, q in list(zip(s.vs, s.qs))[:20]:
        assert vanishing_qhat(lat, PicClass(v)) == q


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
    # Every triple leaves the code alone, in the orbit walk and in apply_move alike:
    # it flips no bit.  The swaps still move it.
    good = pin.flips
    monkeypatch.setattr(pin, "flips", lambda move, n: (0, 0) if move[0] == "cremona" else good(move, n))


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
    # The column evaluator's q, shifted per vector by shift(its coordinate tuple).
    def patch(monkeypatch):
        good = counting.qhat_columns

        def bad(xs, square, twist):
            return bytes((q + shift(x)) % 4 for q, x in zip(good(xs, square, twist), xs.rows()))

        monkeypatch.setattr(counting, "qhat_columns", bad)
    return patch


def _flip_sixth_four_vector(c):
    # q shifted by 2 on the sixth B^4 vector of c, in search order.
    def patch(monkeypatch):
        sixth = enumerate_coordinates(lambda_basis(c.id), -4)[5]
        _perturb_evaluator(lambda coords: 2 * (coords == sixth))(monkeypatch)
    return patch


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
    "d6_four_vector_q_flipped": (D6.id, _flip_sixth_four_vector(D6), D6_FOUR),
    # The same on a code class, whose tables and cross-model sums read q too.
    "e7_four_vector_q_flipped": (E7.id, _flip_sixth_four_vector(E7), {
        f"{name}:M-1-connected" for name in (
            "delta_table", "four_sum", "cross_model_four", "pair_total_96", "total_30")} | {
        "table5_rows", "table5_bilevel_rule", "table6:M-1:c4_plus"}),
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


# The reflection check's text for the faults it catches, as the exact walk that
# preceded the packed pass names them: the first failing vector and simple root.
REFLECTION_ERRORS = {
    "d6_four_vector_pair_dropped": "error: LatticeError: reflection left the stratum: "
                                   "(-2; 0,0,0,2,1,1,1,1) by (1; -1,-1,-1,0,0,0,0,0)",
    "d6_four_vector_q_flipped": "error: LatticeError: reflection law failed at "
                                "(-3; 0,1,2,2,1,1,1,1) by (0; 0,1,-1,0,0,0,0,0)",
    "e7_four_vector_q_flipped": "error: LatticeError: reflection law failed at "
                                "(-4; 2,1,1,2,2,2,1,1) by (0; 0,0,1,-1,0,0,0,0)",
    "non_quadratic_evaluator": "error: LatticeError: reflection law failed at "
                               "(-3; 1,1,2,1,1,1,1,1) by (1; -1,-1,-1,0,0,0,0,0)",
}


@pytest.mark.parametrize("fault", list(REFLECTION_ERRORS))
def test_the_reflection_check_names_the_first_failing_vector(fresh_caches, monkeypatch, fault):
    scope, perturb, _ = FAULTS[fault]
    perturb(monkeypatch)
    actual = {r.name: r.actual for r in _records(scope) if not r.passed and isinstance(r.actual, str)}
    assert actual == {f"delta_table:{scope}": REFLECTION_ERRORS[fault]}


def test_clear_model_caches_finds_every_cache():
    # A cache the faults below do not clear would hand them the green tables.
    assert {f"{fn.__module__}.{fn.__qualname__}" for fn in model_caches()} == {
        "dp1.real_forms.lambda_basis", "dp1.real_forms._kernel_sublattice",
        "dp1.counting.b_classes_cached", "dp1.wallcross.vanishing_roots_cached",
        "dp1.wallcross.q_index_cached", "dp1.wallcross.packed_stratum", "dp1.lattice._search",
        "dp1.roots.identify"}


def test_full_build_searches_once_per_gram_and_norm(fresh_caches):
    # 42 distinct (gram, norm) keys reach enumerate_coordinates; the rank-0 one
    # returns before the cache, so the other 41 are each searched once.  The
    # cross-model sums read their strata's coordinates and search nothing.  The 22
    # root-system identifications name 12 distinct lattices, each identified once.
    build_records("all")
    info = lattice._search.cache_info()
    assert (info.hits, info.misses, info.currsize) == (10, 41, 41)
    info = roots.identify.cache_info()
    assert (info.hits, info.misses) == (10, 12)


def test_a_full_build_reads_q_and_alpha_off_columns(fresh_caches):
    # q and alpha come off packed columns for whole strata: alpha_of runs once per
    # splitting witness (E8's 11 keys), the per-vector evaluator only under qhat_code,
    # and qhat_code only in twist, once per simple root of each code class's B^2 and
    # B^4 (8 + 7, twice).  The Cremona property reflects nothing class by class.
    names = {counting.alpha_of.__code__: "alpha_of", pin.qhat_from_coordinates.__code__: "qhat",
             pin.qhat_code.__code__: "qhat_code", lattice.reflect.__code__: "reflect"}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code], frame.f_back.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        build_records("all")
    finally:
        sys.setprofile(previous)
    twist = {counting.twist.__code__, *counting.twist.__code__.co_consts}  # with its generator
    assert sum(n for (name, _), n in calls.items() if name == "alpha_of") <= 11
    assert {(name, "twist" if caller in twist else caller.co_name): n
            for (name, caller), n in calls.items() if name != "alpha_of"} == {
        ("qhat", "qhat_code"): 30, ("qhat_code", "twist"): 30}


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


NAME_FAULTS = {fault: row[:2] for fault, row in FAULTS.items()} | {
    "corrupted_4a1_embedding": ("M-4", corrupt_4a1_embedding),
    "enumeration_raises": ("M-4", break_the_enumerator),
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
