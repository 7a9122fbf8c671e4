import random
import re
from operator import ne

import pytest

from conftest import stratum, vanishing_qhat
from test_counting import FAULTS, REFLECTION_ERRORS
from dp1 import wallcross
from dp1.counting import alpha_of, b_classes, sign_of
from dp1.golden import SPLITTING_TABLE
from dp1.lattice import K, MINUS_2K, MINUS_K, Columns, LatticeError, PicClass, dot_tuples, form_row
from dp1.pin import MOD4, POSITIVE_CODE, qhat_code
from dp1.real_forms import deformation_classes, get_class, lambda_basis
from dp1.report import build_records
from dp1.wallcross import (
    MAX_MULTIPLICITY,
    DeltaTable,
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


def _classes(c, k):
    """(v, alpha, q) of each class of B^{2k} in stratum order, v and alpha as PicClass."""
    s = b_classes(c, k)
    return [(PicClass(v), PicClass(alpha_of(v)), q) for v, q in zip(s.vs, s.qs)]


def _alpha_with(c, stratum, t, root):
    for v, alpha, _ in _classes(c, stratum // 2):
        if v.dot(root) == t:
            return alpha
    return None


def _with_extra(good, k, w):
    """The strata of good with the class w, q = 0, appended to B^{2k}: its ambient
    coefficients to vs, and its coordinates over the simple roots to xs."""
    def spoiled(c, j):
        s = good(c, j)
        if j != k:
            return s
        rows = s.xs.rows() + [lambda_basis(c.id).coordinates_of(w)]
        xs = Columns.pack(len(rows), list(zip(*rows)))
        return stratum(j, s.vs + (w.coeffs,), (*s.qs, 0), xs=xs)
    return spoiled


def test_splitting_cases_match_tables():
    root = vanishing_roots(E8)[0]
    for (stratum, t), want in SPLITTING_TABLE.items():
        b = _alpha_with(E8, stratum, t, root)
        if b is None:
            continue
        got = tuple(splittings(b, root))
        assert got == want, (stratum, t)


def test_wall_crossing_results_are_plain_values_in_golden_order():
    # splittings yields golden's rows as plain tuples on every (stratum, v.E) key,
    # and a DeltaTable is the tuple of Table 7's rows.
    root = vanishing_roots(E8)[0]
    for (stratum, t), want in SPLITTING_TABLE.items():
        rows = splittings(_alpha_with(E8, stratum, t, root), root)
        assert all(type(row) is tuple for row in rows)
        assert tuple(rows) == want, (stratum, t)
    assert DeltaTable._fields == ("d41", "d42", "d20", "d21", "d22")
    classes = 0
    for c in deformation_classes():
        if vanishing_roots(c):
            s = b_classes(c, 1)  # the index delta_table reads: B^2's {v: q}
            assert wallcross.q_index_cached(c.id) == dict(zip(s.vs, s.qs))
            assert {tuple(delta_table(c, e)) for e in vanishing_roots(c)} == {delta_expected(c)}
            classes += 1
    assert classes == 10


def test_splitting_fixed_cases():
    root = vanishing_roots(E8)[0]
    b = _alpha_with(E8, 2, 1, root)
    ((r, stratum, d_square, d_dot_e),) = splittings(b, root)
    assert (r, d_square, d_dot_e, stratum) == (1, 2, 1, 2)
    b = _alpha_with(E8, 2, 2, root)  # e = -E
    assert MINUS_2K - b == -root
    ((r, _, d_square, d_dot_e),) = splittings(b, root)
    assert (r, b - r * root, d_square, d_dot_e) == (
        2, MINUS_2K - root, 2, 2)
    ((_, b0, _),) = _classes(E8, 0)
    ((r, _, _, d_dot_e),) = splittings(b0, root)
    assert (r, b0 - r * root, d_dot_e) == (1, MINUS_2K - root, 2)
    # B^0's one class, v = 0, is orthogonal to every root: it witnesses the key (0, 0).
    assert wallcross.splitting_witnesses(E8, root)[(0, 0)] == (0,) * 9
    b = _alpha_with(E8, 4, 2, root)
    ((r, stratum, _, d_dot_e),) = splittings(b, root)
    assert (r, stratum, d_dot_e) == (2, 4, 2)


def test_splitting_multiplicity_bounded_by_two():
    root = vanishing_roots(E8)[0]
    for k in (0, 1, 2):
        for _, alpha, _ in _classes(E8, k)[:300]:
            assert all(r <= 2 for r, *_ in splittings(alpha, root))


def test_full_alpha_sweep_single_root():
    # Every candidate class against one degeneration root, no shortcuts.
    root = vanishing_roots(E8)[17]
    for k in (0, 1, 2):
        for v, alpha, _ in _classes(E8, k):
            t = v.dot(root)
            got = tuple(splittings(alpha, root))
            assert got == SPLITTING_TABLE[(2 * k, t)]
            for r, _, d_square, d_dot_e in got:
                d = alpha - r * root
                assert d_square == d.square
                assert d_dot_e == d.dot(root)


def _reference_splittings(alpha, e):
    # The filters of `splittings`, in PicClass arithmetic.
    cases = []
    for r in range(1, MAX_MULTIPLICITY + 1):
        d = alpha - r * e
        if d.dot(MINUS_K - e) < 0 or d.dot(e) < 1 or d.square < -1:
            continue
        stratum = {0: 0, -2: 2, -4: 4}.get((MINUS_2K - d).square)
        if stratum is not None:
            cases.append((r, stratum, d.square, d.dot(e)))
    return cases


def test_splittings_depend_only_on_stratum_and_t():
    roots = vanishing_roots(get_class("M-2-connected"))
    c = get_class("M-2-connected")
    seen = {}
    for root in roots:
        for k in (0, 1, 2):
            for v, alpha, _ in _classes(c, k):
                t = v.dot(root)
                key = (2 * k, t)
                cases = splittings(alpha, root)
                assert cases == _reference_splittings(alpha, root)
                summary = tuple(cases)
                assert seen.setdefault(key, summary) == summary


def _reference_delta_table(c, e):
    """The kernel as one loop: v.E per class by dot_tuples."""
    orth = 0
    pairing = {2: 0, 4: 0}
    for k in (0, 1, 2):
        s = b_classes(c, k)
        for v, q in zip(s.vs, s.qs):
            t = dot_tuples(v, e.coeffs)
            if abs(t) == 1:
                pairing[2 * k] += sign_of(q)
            elif t == 0 and k == 1:
                orth += sign_of(q)
    return DeltaTable(d41=pairing[4], d42=2 * orth, d20=-2 * orth, d21=pairing[2],
                      d22=2 * (c.euler_char - 1))


def test_packed_kernel_equals_the_loop_on_every_vanishing_root(monkeypatch):
    # The kernel only counts lanes: the limit splittings are the splitting_table record's.
    def refuse(alpha, e):
        raise AssertionError("delta_table ran the limit splittings")

    monkeypatch.setattr(wallcross, "splittings", refuse)
    tables = 0
    for c in deformation_classes():
        for root in vanishing_roots(c):
            assert delta_table(c, root) == _reference_delta_table(c, root), (c.id, root)
            tables += 1
    assert tables == 304


def test_splitting_summaries_run_the_first_class_of_each_key(monkeypatch):
    root = vanishing_roots(E8)[0]
    want = {}
    for k in (0, 1, 2):
        for v, alpha, _ in _classes(E8, k):
            want.setdefault((2 * k, v.dot(root)), alpha)
    seen = {}

    def recorded(alpha, e):
        assert e == root
        v = MINUS_2K - alpha
        seen[(-v.square, v.dot(e))] = alpha
        return splittings(alpha, e)

    monkeypatch.setattr(wallcross, "splittings", recorded)
    assert wallcross.splitting_summaries(E8) == SPLITTING_TABLE
    assert len(want) == len(SPLITTING_TABLE)
    assert seen == want


def test_splitting_witnesses_are_the_first_class_of_each_key():
    # The lane read against a first-seen scan in stratum order, B^0 included, at
    # every vanishing root of every class.
    roots = 0
    for c in deformation_classes():
        for e in vanishing_roots(c):
            want = {}
            for k in (0, 1, 2):
                for v in b_classes(c, k).vs:
                    want.setdefault((2 * k, dot_tuples(v, e.coeffs)), v)
            assert list(wallcross.splitting_witnesses(c, e).items()) == list(want.items())
            roots += 1
    assert roots == 304


def test_a_lane_beyond_the_cauchy_schwarz_bound_raises(fresh_caches, monkeypatch):
    # 3u with u.E = 1 is no stratum vector; only the lane count can notice it.
    root = vanishing_roots(E8)[0]
    u = MINUS_2K - _alpha_with(E8, 2, 1, root)
    wallcross.q_index_cached(E8.id)  # the reflection facts, before the stratum is spoiled
    monkeypatch.setattr(wallcross, "b_classes", _with_extra(wallcross.b_classes, 2, 3 * u))
    with pytest.raises(LatticeError, match=r"1 classes of B\^4 of M-connected have \|v.E\| > 2"):
        delta_table(E8, root)


def test_a_b2_lane_beyond_the_cauchy_schwarz_bound_raises(fresh_caches, monkeypatch):
    # The B^2 twin of the test above: 3u and -3u, u a root with u.E = 1, are not
    # roots, and their lanes, v.E = 3 and -3, are two outside the ten legal values.
    root = vanishing_roots(E8)[0]
    u = MINUS_2K - _alpha_with(E8, 2, 1, root)
    wallcross.q_index_cached(E8.id)
    spoiled = _with_extra(_with_extra(wallcross.b_classes, 1, 3 * u), 1, -3 * u)
    monkeypatch.setattr(wallcross, "b_classes", spoiled)
    with pytest.raises(LatticeError, match=r"^2 classes of B\^2 of M-connected have \|v.E\| > 2"):
        delta_table(E8, root)


@pytest.mark.parametrize("scale", [3, 40, 100, 120, 200])
def test_a_spoiled_stratum_vector_fails_the_reflection_check(fresh_caches, monkeypatch, scale):
    # u is the simple root b_7, so scale * u has the coordinates scale * e_7 and lies
    # in no stratum.  The pass by b_6 meets it first, with lane bounds 14 + scale on
    # t and 18 + scale on the image x_6 + t: up to 109 it names scale * u.  At 120
    # its lanes pack but t may pass 127, and at 200 they do not pack: either way the
    # check raises, naming the lane bound, and never reads a wrapped lane.
    u = MINUS_2K - _alpha_with(E8, 2, 1, vanishing_roots(E8)[0])
    monkeypatch.setattr(wallcross, "b_classes", _with_extra(wallcross.b_classes, 2, scale * u))
    left = re.escape(f"reflection left the stratum: {scale * u} by (")
    message = {120: r"^a reflection of B\^4 of M-connected may pass the lane bound 127$",
               200: "^a packed value passes the lane bound 127$"}.get(scale, left)
    with pytest.raises(LatticeError, match=message):
        wallcross.q_index_cached(E8.id)


@pytest.mark.parametrize("k", [1, 2])
def test_a_class_listed_twice_fails_the_reflection_check(monkeypatch, k):
    # v appended once more keeps every lane in bound, but two keys collide: the
    # images could no longer be the n classes.
    v = PicClass(b_classes(E8, k).vs[7])
    monkeypatch.setattr(wallcross, "b_classes", _with_extra(wallcross.b_classes, k, v))
    with pytest.raises(LatticeError, match=f"^B\\^{2 * k} of M-connected lists a class twice$"):
        wallcross.q_index_cached.__wrapped__(E8.id)


def _ambient_reflection_check(class_id):
    """The reflection check on the strata's ambient columns, as it stood before it
    read the search's coordinates: a key l1..l8 names a class only after a
    whole-stratum v.K = 0 guard, and each image sums one column per nonzero
    coefficient of b.  Returns `q_index_cached`'s {v: q} or raises its texts."""
    strata = [b_classes(get_class(class_id), k) for k in (1, 2)]
    q_of = dict(zip(strata[0].vs, strata[0].qs))
    packs = []
    for s in strata:
        cols, name = s.columns, f"B^{2 * s.k} of {class_id}"
        what = f"a reflection of {name}"
        v_k = cols.combine(zip(form_row(K), cols.cols), what).packed
        if v_k:  # its lowest set bit lies in the lane of the first class off K-perp
            w = PicClass(s.vs[((v_k & -v_k).bit_length() - 1) // 8])
            raise LatticeError(f"{w} in {name} is not in K-perp")
        own = dict(zip(wallcross._keys(cols, cols.cols[1:]), s.qs))
        if len(own) < cols.n:
            raise LatticeError(f"{name} lists a class twice")
        packs.append((s.vs, cols, Columns.pack(cols.n, [s.qs]).cols[0], own, what))
    for b in lambda_basis(class_id).basis:
        bc, row = b.coeffs, form_row(b)
        q_b = q_of.get(bc)
        if q_b is None:
            raise LatticeError(f"simple root {b} is missing from B^2 of {class_id}")
        for vs, cols, qs, own, what in packs:
            t = cols.combine(zip(row, cols.cols), what)
            q_images = cols.combine(((1, qs), ((q_b + 2) % 4, t)), what)
            want = list(bytes(cols.lanes(q_images.packed)).translate(MOD4))
            images = [cols.combine(((1, x), (y, t)), what) if y else x
                      for x, y in zip(cols.cols[1:], bc[1:])]
            got = list(map(own.get, wallcross._keys(cols, images)))
            if got != want:
                i = list(map(ne, got, want)).index(True)
                v = PicClass(vs[i])
                raise LatticeError(f"reflection left the stratum: {v} by {b}" if got[i] is None
                                   else f"reflection law failed at {v} by {b}")
    return q_of


def test_the_coordinate_check_equals_the_ambient_pass_on_every_class():
    ids = [c.id for c in deformation_classes() if c.rank]
    assert len(ids) == 10
    for class_id in ids:
        assert wallcross.q_index_cached(class_id) == _ambient_reflection_check(class_id)


@pytest.mark.parametrize("fault", list(REFLECTION_ERRORS))
def test_the_coordinate_check_and_the_ambient_pass_name_the_same_failure(fresh_caches, monkeypatch,
                                                                         fault):
    scope, perturb, _ = FAULTS[fault]
    perturb(monkeypatch)
    message = re.escape(REFLECTION_ERRORS[fault].removeprefix("error: LatticeError: "))
    for check in (wallcross.q_index_cached.__wrapped__, _ambient_reflection_check):
        with pytest.raises(LatticeError, match=f"^{message}$"):
            check(scope)


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


def test_reflection_shifts_qhat_by_two_on_unit_pairing():
    # The per-root reflection law that the kernel's once-per-class check on simple
    # roots implies, checked pointwise with q from the independent twist-2 evaluator.
    c = get_class("M-2-connected")
    lat = lambda_basis(c.id)
    roots = vanishing_roots(c)
    assert len(roots) == 36
    hits = 0
    for k in (1, 2):
        classes = _classes(c, k)
        q_of = {v: vanishing_qhat(lat, v) for v, _, _ in classes}
        for root in roots:
            for v, _, q in classes:
                t = dot_tuples(v.coeffs, root.coeffs)
                image = v + t * root
                assert image in q_of
                q_image = q_of[image]
                if abs(t) == 1:
                    assert q_image == (q + 2) % 4
                    hits += 1
                else:
                    assert q_image == q
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
    assert delta_table(E8, root) == (0, 28, -28, 0, -16)
    root4 = vanishing_roots(M4)[0]
    assert delta_table(M4, root4) == (0, 12, -12, 0, 0)
    for c in deformation_classes():
        roots = vanishing_roots(c)
        if not roots:
            continue
        dt = delta_table(c, roots[0])
        assert dt == delta_expected(c)
        assert dt.d42 + dt.d20 == 0
        assert dt.orth == 2 * (c.rank - 1)
        assert dt.balance == 12


def test_invalid_vanishing_root_rejected():
    c = get_class("M-connected")
    bad = next(v for v, _, q in _classes(c, 1) if q != 0)
    with pytest.raises(LatticeError, match="nonzero quadratic value"):
        delta_table(c, bad)
    with pytest.raises(LatticeError):
        delta_table(c, MINUS_2K)


def test_root_outside_the_class_lattice_rejected():
    # Roots of K-perp = E8 that the class lattice does not contain.
    for cid in ("M-1-connected", "M-2-connected", "M-4"):
        c = get_class(cid)
        inside = {v for v, _, _ in _classes(c, 1)}
        outside = next(v for v, _, _ in _classes(E8, 1) if v not in inside)
        with pytest.raises(LatticeError, match=f"not a root of the {cid} class lattice"):
            delta_table(c, outside)
