import random

import pytest

from conftest import vanishing_qhat
from dp1 import wallcross
from dp1.counting import b_classes
from dp1.lattice import MINUS_2K, LatticeError, dot_tuples
from dp1.pin import POSITIVE_CODE, qhat_code
from dp1.real_forms import deformation_classes, get_class, lambda_basis
from dp1.report import build_records
from dp1.wallcross import (
    SPLITTING_TABLE,
    delta_expected,
    delta_table,
    splittings,
    vanishing_roots,
)

RNG = random.Random(7)

E8 = get_class("M-connected")
M4 = get_class("M-4")


def test_vanishing_root_counts():
    assert len(vanishing_roots(E8)) == 128
    assert len(vanishing_roots(M4)) == 8
    assert vanishing_roots(get_class("M-split")) == ()
    for root in vanishing_roots(E8)[:10]:
        assert qhat_code(POSITIVE_CODE, root) == 0


def _alpha_with(c, stratum, t, root):
    for b in b_classes(c, stratum // 2):
        if b.v.dot(root) == t:
            return b
    return None


def test_splitting_cases_match_tables():
    root = vanishing_roots(E8)[0]
    for (stratum, t), want in SPLITTING_TABLE.items():
        b = _alpha_with(E8, stratum, t, root)
        if b is None:
            continue
        got = tuple(s.summary for s in splittings(b, root))
        assert got == want, (stratum, t)


def test_splitting_fixed_cases():
    root = vanishing_roots(E8)[0]
    b = _alpha_with(E8, 2, 1, root)
    (case,) = splittings(b, root)
    assert (case.r, case.d_square, case.d_dot_e, case.d_stratum) == (1, 2, 1, 2)
    b = _alpha_with(E8, 2, 2, root)  # e = -E
    assert b.v == -root
    (case,) = splittings(b, root)
    assert (case.r, case.d, case.d_square, case.d_dot_e) == (
        2, MINUS_2K - root, 2, 2)
    (b0,) = b_classes(E8, 0)
    (case,) = splittings(b0, root)
    assert (case.r, case.d, case.d_dot_e) == (1, MINUS_2K - root, 2)
    b = _alpha_with(E8, 4, 2, root)
    (case,) = splittings(b, root)
    assert (case.r, case.d_stratum, case.d_dot_e) == (2, 4, 2)


def test_splitting_multiplicity_bounded_by_two():
    root = vanishing_roots(E8)[0]
    for k in (0, 1, 2):
        for b in b_classes(E8, k)[:300]:
            assert all(s.r <= 2 for s in splittings(b, root))


def test_full_alpha_sweep_single_root():
    # Every candidate class against one degeneration root, no shortcuts.
    root = vanishing_roots(E8)[17]
    for k in (0, 1, 2):
        for b in b_classes(E8, k):
            t = b.v.dot(root)
            got = tuple(s.summary for s in splittings(b, root))
            assert got == SPLITTING_TABLE[(b.stratum, t)]
            for case in splittings(b, root):
                assert case.d == b.alpha - case.r * root
                assert case.d_square == case.d.square
                assert case.d_dot_e == case.d.dot(root)


def test_splittings_depend_only_on_stratum_and_t():
    roots = vanishing_roots(get_class("M-2-connected"))
    c = get_class("M-2-connected")
    seen = {}
    for root in roots:
        for k in (1, 2):
            for b in b_classes(c, k):
                t = b.v.dot(root)
                key = (b.stratum, t)
                summary = tuple(s.summary for s in splittings(b, root))
                assert seen.setdefault(key, summary) == summary


def test_orth_root_sum_values():
    assert delta_table(E8, vanishing_roots(E8)[0]).orth == 14
    a1 = get_class("M-1-split")
    assert delta_table(a1, vanishing_roots(a1)[0]).orth == 0
    d6 = get_class("M-2-connected")
    assert delta_table(d6, vanishing_roots(d6)[0]).orth == 10


def test_pairing_cancellation_zero():
    for cid in ("M-connected", "M-2-connected", "M-4"):
        c = get_class(cid)
        dt = delta_table(c, vanishing_roots(c)[0])
        assert (dt.d21, dt.d41) == (0, 0)
        assert dt.split_mismatches == 0


def test_reflection_shifts_qhat_by_two_on_unit_pairing():
    # The per-root reflection law that the kernel's once-per-class check on simple
    # roots implies, checked pointwise with q from the independent twist-2 evaluator.
    c = get_class("M-2-connected")
    lat = lambda_basis(c.id)
    roots = vanishing_roots(c)
    assert len(roots) == 36
    hits = 0
    for k in (1, 2):
        q_of = {b.v: vanishing_qhat(lat, b.v) for b in b_classes(c, k)}
        for root in roots:
            for b in b_classes(c, k):
                t = dot_tuples(b.v.coeffs, root.coeffs)
                image = b.v + t * root
                assert image in q_of
                q_image = q_of[image]
                if abs(t) == 1:
                    assert q_image == (b.qhat + 2) % 4
                    hits += 1
                else:
                    assert q_image == b.qhat
    assert hits > 0


def test_scoped_build_checks_the_reflection_facts_once(fresh_caches, monkeypatch):
    calls = []
    kernel = wallcross.delta_table

    def counted(c, e):
        calls.append(c.id)
        return kernel(c, e)

    monkeypatch.setattr(wallcross, "delta_table", counted)
    build_records("M-2-connected")
    assert calls == ["M-2-connected"] * 36
    assert wallcross.q_index_cached.cache_info().misses == 1


def test_delta_tables():
    root = vanishing_roots(E8)[0]
    assert delta_table(E8, root).as_tuple() == (0, 28, -28, 0, -16)
    root4 = vanishing_roots(M4)[0]
    assert delta_table(M4, root4).as_tuple() == (0, 12, -12, 0, 0)
    for c in deformation_classes():
        roots = vanishing_roots(c)
        if not roots:
            continue
        dt = delta_table(c, roots[0])
        assert dt.as_tuple() == delta_expected(c)
        assert dt.d42 + dt.d20 == 0
        assert dt.orth == 2 * (c.rank - 1)
        assert dt.balance == 12


def test_invalid_vanishing_root_rejected():
    c = get_class("M-connected")
    bad = next(b.v for b in b_classes(c, 1) if b.qhat != 0)
    with pytest.raises(LatticeError, match="nonzero quadratic value"):
        delta_table(c, bad)
    with pytest.raises(LatticeError):
        delta_table(c, MINUS_2K)


def test_root_outside_the_class_lattice_rejected():
    # Roots of K-perp = E8 that the class lattice does not contain.
    for cid in ("M-1-connected", "M-2-connected", "M-4"):
        c = get_class(cid)
        inside = {b.v for b in b_classes(c, 1)}
        outside = next(b.v for b in b_classes(E8, 1) if b.v not in inside)
        with pytest.raises(LatticeError, match=f"not a root of the {cid} class lattice"):
            delta_table(c, outside)
