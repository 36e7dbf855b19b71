import random
from fractions import Fraction as Q

import pytest
from conftest import (EMPTY_WITNESS, gale_bilinear_defect, lemmah_defect,
                      lvm_face_oracle, polytope_faces_brute,
                      random_even_calibrated_fan)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtoric.calibration import CalibratedFan, Calibration, trivial_calibration
from qtoric.errors import (NoIndispensable, NotBalanced, NotEven,
                           RankDeficient)
from qtoric.gale_lvmb import (LVMBDatum, build_lvmb, check_lvm, check_lvmb,
                              condition_KH, g_lattice, gale_affine,
                              gale_linear, is_even, lvmb_to_fan,
                              polytope_faces, roundtrip_marked_iso)
from qtoric.lattice_fan import QLattice, fan_from_max_cones
from qtoric.linalg import Matrix
from qtoric.scalars import Parameter, Scalar, Witness

A = Parameter("a")
B = Parameter("b")
T = Parameter("t", "quadratic", 2)
SA, SB, ST = Scalar.of_param(A), Scalar.of_param(B), Scalar.of_param(T)
W = Witness({A: Q(-7, 3), B: Q(-5, 4), T: Q(3, 2)})


def p2_def_calibrated():
    gamma = QLattice(2, [[1, 0], [0, 1], [SA, SB]])
    fan = fan_from_max_cones(gamma, [[1, 0], [0, 1], [SA, SB]],
                             [[1, 2], [2, 3], [3, 1]])
    return trivial_calibration(fan)


def blowup_calibrated():
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                             [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1]],
                             [[1, 2], [2, 4], [3, 4], [3, 5], [1, 5]])
    return trivial_calibration(fan)


def p1_calibrated(a=SA):
    gamma = QLattice(1, [[1], [a]])
    fan = fan_from_max_cones(gamma, [[1], [-1]], [[1], [2]])
    cal = Calibration(gamma, [[1], [-1], [a]], J=[3], I=[1, 2])
    return CalibratedFan(fan, cal)


# -- Gale transforms ---------------------------------------------------------

def test_gale_linear_p2_deformation():
    gale = gale_linear(p2_def_calibrated().cal)
    assert [[str(x) for x in v] for v in gale.vectors] == \
        [["-a"], ["-b"], ["1"]]


def test_gale_linear_blowup_exact():
    gale = gale_linear(blowup_calibrated().cal)
    assert [[str(x) for x in v] for v in gale.vectors] == \
        [["1", "1", "0"], ["1", "0", "1"],
         ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_gale_linear_identity_calibration_is_empty():
    fan = fan_from_max_cones(QLattice.standard(2),
                             [[1, 0], [0, 1]], [[1, 2]])
    gale = gale_linear(trivial_calibration(fan).cal)
    assert gale.width == 0


def test_gale_affine_balance_required():
    with pytest.raises(NotBalanced):
        gale_affine([(1,), (1,)])


def test_gale_affine_p1_and_bilinear_identity():
    vbar = [(1,), (-1,), (0,)]
    gale = gale_affine(vbar)
    assert gale.width == 1
    defect = gale_bilinear_defect(gale, vbar)
    assert all(x.is_zero() for r in defect.rows for x in r)


def test_gale_affine_vs_linear_span():
    # subtracting A_{n+1} from the affine output solves the linear system
    cf = p2_def_calibrated()
    images = list(cf.cal.images)
    extra = [Scalar.zero()] * 2
    for v in images:
        extra = [e - x for e, x in zip(extra, v)]
    vbar = images + [tuple(extra)]
    ga = gale_affine(vbar)
    h = cf.cal.matrix()
    last = ga.vectors[-1]
    for i in range(3):
        diff = [x - y for x, y in zip(ga.vectors[i], last)]
        img = h.apply  # h . x = sum x_i v_i; check sum_i diff-weighted
    # the defining property: sum_i <A_i - A_{n+1}, t> v_i = 0
    n = 3
    width = ga.width
    for c in range(width):
        acc = [Scalar.zero()] * 2
        for i in range(n):
            coeff = ga.vectors[i][c] - last[c]
            acc = [a + coeff * x for a, x in zip(acc, images[i])]
        assert all(x.is_zero() for x in acc)


def test_gale_affine_tail_normalization():
    cf = p1_calibrated()
    images = list(cf.cal.images)
    extra = [Scalar.zero()]
    for v in images:
        extra = [e - x for e, x in zip(extra, v)]
    vbar = images + [tuple(extra)]
    ga = gale_affine(vbar, normalization="tail")
    assert ga.normalization == "tail-canonical"
    width = ga.width
    eye = Matrix.identity(width)
    for k in range(width):
        row = ga.vectors[len(vbar) - width + k]
        assert all((x - y).is_zero() for x, y in zip(row, eye.rows[k]))
    defect = gale_bilinear_defect(ga, vbar)
    assert all(x.is_zero() for r in defect.rows for x in r)


def test_gale_affine_simplex_case():
    # n = d: the only affine relation is trivial, Gale data is empty
    vbar = [(1, 0), (0, 1), (-1, -1)]
    gale = gale_affine(vbar)
    assert gale.width == 0
    assert len(gale.vectors) == 3


def test_gale_bilinear_identity_randomized():
    rng = random.Random(61)
    for _ in range(50):
        cf = random_even_calibrated_fan(rng, rng.choice([1, 2]))
        images = list(cf.cal.images)
        extra = [Scalar.zero()] * cf.cal.d
        for v in images:
            extra = [e - x for e, x in zip(extra, v)]
        vbar = images + [tuple(extra)]
        gale = gale_affine(vbar)
        defect = gale_bilinear_defect(gale, vbar)
        assert all(x.is_zero() for r in defect.rows for x in r)


def test_lemmah_identity_randomized():
    rng = random.Random(62)
    count = 0
    while count < 50:
        cf = random_even_calibrated_fan(rng, rng.choice([1, 2]))
        # lemmah needs a standard calibration
        from qtoric.calibration import standardize_calibration
        std, _ = standardize_calibration(cf)
        gale = gale_linear(std.cal)
        defect = lemmah_defect(std.cal, gale)
        assert all(x.is_zero() for r in defect.rows for x in r)
        count += 1


# -- LVMB data ---------------------------------------------------------------

def test_build_lvmb_p1():
    cf = p1_calibrated()
    datum = build_lvmb(cf)
    assert datum.m == 1 and datum.N == 4
    assert datum.indispensable() == [3, 4]
    assert sorted(sorted(e) for e in datum.E) == [[1, 3, 4], [2, 3, 4]]
    assert check_lvmb(datum, W).ok


def test_build_lvmb_requires_even():
    cf = blowup_calibrated()      # n - d = 3, odd
    with pytest.raises(NotEven):
        build_lvmb(cf)


def test_build_lvmb_p2_extended():
    gamma = QLattice(2, [[1, 0], [0, 1], [SA, SB]])
    fan = fan_from_max_cones(gamma, [[1, 0], [0, 1], [SA, SB]],
                             [[1, 2], [2, 3], [3, 1]])
    cal = Calibration(gamma, [[1, 0], [0, 1], [SA, SB], [1, 1]],
                      J=[4], I=[1, 2, 3])
    cf = CalibratedFan(fan, cal)
    assert is_even(cf)[0]
    datum = build_lvmb(cf)
    assert datum.m == 1 and datum.N == 5
    assert check_lvmb(datum, W).ok
    assert datum.indispensable() == [4, 5]


def test_indispensable_matches_virtual_generators():
    rng = random.Random(63)
    for _ in range(10):
        cf = random_even_calibrated_fan(rng, rng.choice([1, 2, 3]))
        datum = build_lvmb(cf)
        expected = sorted(list(cf.cal.J) + [datum.N])
        assert datum.indispensable() == expected


def test_check_lvm_examples():
    res = check_lvm([(1, 0), (0, 1), (-1, -1)], 1, W)
    assert res["siegel"] and res["weak_hyperbolic"]
    assert sorted(sorted(e) for e in res["E"]) == [[1, 2, 3]]
    res2 = check_lvm([(1, 0), (2, 0), (3, 0)], 1, W)
    assert not res2["siegel"]
    res3 = check_lvm([(1, 0), (-1, 0), (0, 1), (0, -1)], 1, W)
    assert not res3["weak_hyperbolic"]


def test_hopf_zone_lvmb():
    # lambda = (i, 1+i, l3, l4): valid iff l3, l4 on the same side of Im=1
    same = LVMBDatum(1, [(0, 1), (1, 1), (Q(1, 3), 2), (Q(1, 7), 3)],
                     [[1, 2, 3], [1, 2, 4]])
    assert check_lvmb(same, W).ok
    opposite = LVMBDatum(1, [(0, 1), (1, 1), (Q(1, 3), 2), (Q(1, 7), 0)],
                         [[1, 2, 3], [1, 2, 4]])
    assert not check_lvmb(opposite, W).ok


def test_affine_hull_is_decided_symbolically():
    # det[(0,0,1), (1,0,1), p] is p's second coordinate
    witness_only = LVMBDatum(1, [(0, 0), (1, 0), (SA, 3 * SA + 7)],
                             [[1, 2, 3]])
    assert W.value(3 * SA + 7) == 0
    assert check_lvmb(witness_only, W).ok
    for p in ((SA, 0), (ST, ST * ST - 2)):
        flat = LVMBDatum(1, [(0, 0), (1, 0), p], [[1, 2, 3]])
        res = check_lvmb(flat, W)
        assert not res.ok and res.reason == "affine_hull"


def test_polytope_faces_torus_point():
    pf = polytope_faces(LVMBDatum(1, [(1, 0), (0, 1), (-1, -1)],
                                  [[1, 2, 3]]), W)
    assert pf.faces == [frozenset()]
    assert pf.vertices == [frozenset()]
    assert pf.facet_count == 0


def test_polytope_faces_hopf_segment():
    hopf = LVMBDatum(1, [(0, 1), (1, 1), (Q(1, 3), 2), (Q(1, 7), 3)],
                     [[1, 2, 3], [1, 2, 4]])
    pf = polytope_faces(hopf, W)
    assert pf.facet_count == 2
    assert sorted(sorted(v) for v in pf.vertices) == [[3], [4]]
    assert len(pf.faces) == 3  # empty face plus two vertices


def test_polytope_faces_blowup_pentagon():
    # extend the blow-up calibration by one virtual generator (n-d even)
    fan = blowup_calibrated().fan
    cal = Calibration(fan.gamma,
                      list(fan.rays) + [[1, 1]], J=[6],
                      I=[1, 2, 3, 4, 5])
    datum = build_lvmb(CalibratedFan(fan, cal))
    assert check_lvmb(datum, EMPTY_WITNESS).ok
    pf = polytope_faces(datum, EMPTY_WITNESS)
    assert pf.facet_count == 5
    assert len(pf.vertices) == 5


def test_polytope_faces_agree_with_lvm_oracle():
    pts = [(1, 0), (-1, 1), (0, -1), (-1, -1), (1, 1), (0, 0)]
    # build a balanced LVM-ish configuration instead: use check_lvm route
    pts = [(1, 0), (Q(-1, 2), Q(1, 2)), (Q(-1, 2), Q(-1, 2)),
           (Q(-1, 3), 0), (Q(1, 3), 0)]
    res = check_lvm(pts, 1, W)
    if res["siegel"] and res["weak_hyperbolic"]:
        pf = polytope_faces(pts, W, m=1)
        for f in pf.faces:
            assert lvm_face_oracle(pts, 1, f, W)


@st.composite
def admissible_families(draw):
    """(n, m, E): E a family, possibly empty, of (2m+1)-subsets of [n]."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(2 * m + 1, 2 * m + 5))
    subsets = st.sets(st.integers(1, n), min_size=2 * m + 1,
                      max_size=2 * m + 1)
    return n, m, draw(st.lists(subsets, max_size=6))


@settings(max_examples=200, deadline=None)
@given(admissible_families())
@example((5, 1, []))
def test_polytope_faces_match_brute_force(family):
    n, m, E = family
    pf = polytope_faces(LVMBDatum(m, [(0,) * (2 * m)] * n, E), EMPTY_WITNESS)
    assert (pf.faces, pf.vertices, pf.facet_count) == \
        polytope_faces_brute(n, m, E)


def test_condition_KH():
    assert condition_KH([(1, 1, 0), (1, 0, 1), (1, 0, 0),
                         (0, 1, 0), (0, 0, 1)], EMPTY_WITNESS) == "K"
    # kernel spanned by (1, sqrt2, -(1+sqrt2)/2, -(1+sqrt2)/2): no integer
    # point besides zero
    assert condition_KH([(ST, 0), (-1, 0), (0, 1), (0, -1)], W) == "H"
    # zero kernel: K vacuously
    assert condition_KH([(1, 0), (0, 1), (1, 1)], EMPTY_WITNESS) == "K"
    # rational relation plus an irrational one: neither
    assert condition_KH([(ST, 0), (-1, 0), (ST, 0), (-1, 0),
                         (0, 1), (0, -1)], W) == "neither"
    # the rank falls short at the witness, or an entry has no value there:
    # the symbolic rank decides, a - 1 and 1/(a - 1) - 1 being nonzero
    at_one = Witness({A: 1})
    assert condition_KH([(SA,), (1,)], at_one) == "K"
    assert condition_KH([(1 / (SA - 1),), (1,)], at_one) == "K"


def test_condition_KH_for_rational_lvm_data():
    rng = random.Random(64)
    for _ in range(5):
        cf = random_even_calibrated_fan(rng, 2)
        datum = build_lvmb(cf)
        assert condition_KH(datum.points, EMPTY_WITNESS) == "K"


def test_g_lattice_hopf():
    l3 = (Q(1, 3), 2)
    l4 = (Q(1, 7), 3)
    Am, Bm, BA = g_lattice([(0, 1), (1, 1), l3, l4], 1)
    assert Am.re == Matrix([[1]]) and Am.im == Matrix([[0]])
    # B rows: l3 - i, l4 - i
    assert Bm.re == Matrix([[Q(1, 3)], [Q(1, 7)]])
    assert Bm.im == Matrix([[1], [2]])
    assert BA.re == Bm.re and BA.im == Bm.im


def test_g_lattice_shapes_and_rank_deficiency():
    pts = [(1, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    with pytest.raises(RankDeficient):
        g_lattice(pts, 1)  # first two points are equal
    permuted = [pts[0], pts[3], pts[1], pts[2], pts[4]]
    Am, Bm, BA = g_lattice(permuted, 1)
    assert BA.re.nrows == len(pts) - 2  # (n - m - 1) x m with m = 1


def test_lvmb_to_fan_requires_balance_and_marker():
    with pytest.raises(NotBalanced):
        lvmb_to_fan(LVMBDatum(1, [(1, 0), (0, 1), (0, 1)], [[1, 2, 3]]))
    # balanced but last point dispensable
    bad = LVMBDatum(1, [(1, 0), (0, 1), (Q(-1, 2), Q(-1, 2)),
                        (Q(-1, 2), Q(-1, 2))],
                    [[1, 2, 3], [2, 3, 4]])
    with pytest.raises(NoIndispensable):
        lvmb_to_fan(bad)


def test_torus_datum_gives_pure_torus():
    td = LVMBDatum(1, [(1, 0), (0, 1), (-1, -1)], [[1, 2, 3]])
    cf = lvmb_to_fan(td)
    assert cf.fan.nrays == 0
    assert cf.fan.cones == frozenset({frozenset()})
    assert cf.cal.J == (1, 2)


def test_roundtrip_p1():
    cf = p1_calibrated()
    rec = lvmb_to_fan(build_lvmb(cf))
    assert rec.cal.matrix() == Matrix([[1, -1, SA]])
    assert roundtrip_marked_iso(cf, rec, W).ok


def test_roundtrip_other_direction():
    # lvmb_to_fan then build_lvmb reproduces the admissible family and the
    # indispensable set, and another reconstruction gives the same fan
    rng = random.Random(65)
    for _ in range(5):
        cf = random_even_calibrated_fan(rng, rng.choice([1, 2]))
        d1 = build_lvmb(cf)
        cf2 = lvmb_to_fan(d1)
        d2 = build_lvmb(cf2)
        assert d2.E == d1.E
        assert d2.indispensable() == d1.indispensable()
        cf3 = lvmb_to_fan(d2)
        assert cf3.cal.matrix() == cf2.cal.matrix()
        assert set(cf3.fan.cones) == set(cf2.fan.cones)
