import random
from fractions import Fraction as Q

import pytest
from conftest import (EMPTY_WITNESS, check_lvmb_pairwise,
                      gale_bilinear_defect, lemmah_defect, lvm_face_oracle,
                      polytope_faces_brute, random_even_calibrated_fan,
                      ref_inverse, ref_rref)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtoric.gale_lvmb as gale_lvmb_mod
import qtoric.lattice_fan as lattice_fan_mod
from qtoric import lp
from qtoric.calibration import CalibratedFan, Calibration, trivial_calibration
from qtoric.errors import (InputError, NoIndispensable, NotBalanced,
                           NotEven, QtoricError, RankDeficient, Singular)
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


def test_gale_affine_tail_rejects_dependent_tail_vectors():
    # the pivot Gale vectors are (1, 1), (-1, 0), (0, -1), (0, 1): the tail
    # rows (0, -1) and (0, 1) are dependent
    with pytest.raises(RankDeficient):
        gale_affine([(1,), (1,), (-1,), (-1,)], normalization="tail")
    empty = gale_affine([(1,), (-1,)], normalization="tail")
    assert empty.width == 0
    assert empty.normalization == "leftmost-pivot-identity-block"


def _strs(vectors):
    return [[str(x) for x in v] for v in vectors]


def _balanced(images):
    """The images and their balancing vector, as cmd_gale --affine takes."""
    images = [[Scalar.coerce(x) for x in v] for v in images]
    return images + [[-sum(col, Scalar.zero()) for col in zip(*images)]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([1, 2, 3]),
       twist=st.sampled_from([None, SA, ST + 2]))
def test_gale_affine_tail_matches_the_reference_inverse(seed, d, twist):
    # the tail coordinates read off one in_basis equal the pivot Gale
    # vectors times the field inverse of their last rows
    rng = random.Random(seed)
    images = [list(v) for v in random_even_calibrated_fan(rng, d).cal.images]
    if twist is not None:
        k = rng.randrange(len(images))
        images[k] = [twist * x for x in images[k]]
    vbar = _balanced(images)
    G = gale_affine(vbar).vectors
    width = len(G[0])
    inv = ref_inverse(Matrix(G[-width:])) if width else None
    if width and inv is None:
        with pytest.raises(RankDeficient):
            gale_affine(vbar, normalization="tail")
        return
    got = gale_affine(vbar, normalization="tail")
    want = (Matrix(G) * inv).rows if width else G
    assert _strs(got.vectors) == _strs(want)
    assert got.normalization == ("tail-canonical" if width else
                                 "leftmost-pivot-identity-block")


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


def test_check_lvmb_builds_the_ridge_map_once(monkeypatch):
    calls = []
    real = lattice_fan_mod._ridge_map
    for mod in (gale_lvmb_mod, lattice_fan_mod):
        monkeypatch.setattr(mod, "_ridge_map",
                            lambda cones: calls.append(1) or real(cones))
    hopf = LVMBDatum(1, [(0, 1), (1, 1), (Q(1, 3), 2), (Q(1, 7), 3)],
                     [[1, 2, 3], [1, 2, 4]])
    assert check_lvmb(hopf, W).ok
    assert len(calls) == 1


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


def test_index_outside_its_range_is_a_value_error():
    # 1.9 was read as 1 and 2.7 as 2
    with pytest.raises(ValueError, match="out of range"):
        LVMBDatum(1, [(0, 0), (1, 0), (0, 1)], [[1.9, 2, 3]])
    with pytest.raises(ValueError, match="out of range"):
        Calibration(QLattice.standard(1), [[1], [-1]], [], [1, 2.7])
    for J, I in (([3, 3], [1]), ([2], [1, 2])):
        with pytest.raises(ValueError, match="twice"):
            Calibration(QLattice.standard(1), [[1], [-1], [1]], J, I)


def random_lvmb(rng) -> LVMBDatum:
    """A datum built from a random even calibrated fan, or random points
    whose entries are integers plus multiples of t = sqrt 2 and of 3a + 7,
    which vanishes at W; then perturbed: a point moved or copied onto
    another, or E changed by one set or one index, or emptied."""
    def entry():
        return (rng.randint(-3, 3) + rng.choice([0, 0, 1, -1]) * ST
                + rng.choice([0, 0, 0, 1]) * (3 * SA + 7))

    if rng.random() < 0.5:
        datum = build_lvmb(random_even_calibrated_fan(rng, rng.choice([1, 2])))
        m, points, E = datum.m, [list(p) for p in datum.points], list(datum.E)
    else:
        m = rng.choice([1, 2])
        N = rng.randint(2 * m + 1, 2 * m + 4)
        points = [[entry() for _ in range(2 * m)] for _ in range(N)]
        E = [frozenset(rng.sample(range(1, N + 1), 2 * m + 1))
             for _ in range(rng.randint(1, 4))]
    N = len(points)
    how = rng.choice(["none", "move", "copy", "add", "drop", "swap",
                      "empty"])
    k = rng.randrange(N)
    if how == "move":
        points[k] = [x + entry() / rng.choice([1, 8, 64]) for x in points[k]]
    elif how == "copy":
        points[k] = list(points[rng.randrange(N)])
    elif how == "add":
        E.append(frozenset(rng.sample(range(1, N + 1), 2 * m + 1)))
    elif how == "drop" and len(E) > 1:
        E.remove(rng.choice(E))
    elif how == "swap" and N > 2 * m + 1:
        e = rng.choice(E)
        out = rng.choice(sorted(set(range(1, N + 1)) - e))
        E.append(e - {rng.choice(sorted(e))} | {out})
    elif how == "empty":
        E = []
    return LVMBDatum(m, points, E)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_check_lvmb_matches_pairwise_hull_reference(rng):
    datum = random_lvmb(rng)
    res = check_lvmb(datum, W)
    assert (res.ok, res.reason) == check_lvmb_pairwise(datum, W)


def test_check_lvmb_reference_sweep_reaches_every_reason():
    seen = set()
    for seed in range(60):
        datum = random_lvmb(random.Random(seed))
        res = check_lvmb(datum, W)
        assert (res.ok, res.reason) == check_lvmb_pairwise(datum, W), seed
        seen.add(res.reason)
    assert seen == {None, "empty_family", "affine_hull", "interiors",
                    "replacement"}


def _counting_feasible(monkeypatch):
    calls = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible",
                        lambda *args: calls.append(1) or feasible(*args))
    return calls


def test_certified_lvmb_datum_runs_no_lp(monkeypatch):
    # the Gale-dual cones of a datum built from a complete fan form a
    # complete fan, which _certified_walls certifies by signs alone
    calls = _counting_feasible(monkeypatch)
    rng = random.Random(17)
    data = [build_lvmb(random_even_calibrated_fan(rng, d))
            for d in (1, 2, 2, 3)]
    data.append(LVMBDatum(1, [(0, 1), (1, 1), (Q(1, 3), 2), (Q(1, 7), 3)],
                          [[1, 2, 3], [1, 2, 4]]))
    for datum in data:
        assert check_lvmb(datum, W).ok
    assert calls == []


def test_lvmb_datum_flat_at_the_witness_takes_one_lp_per_pair(monkeypatch):
    # 3a + 7 vanishes at W, so the points lie on a line there: the dual
    # vectors span R^2 and each cone over a complement is one ray, so the
    # certificate fails and each pair of sets takes its LP.  The hulls
    # share relative interior points, and E has the replacement property.
    calls = _counting_feasible(monkeypatch)
    h = 3 * SA + 7
    datum = LVMBDatum(1, [(0, 0), (1, 0), (SA, h), (Q(1, 2), h),
                          (Q(1, 3), h)], [[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    assert check_lvmb(datum, W).ok
    assert len(calls) == 3
    assert check_lvmb_pairwise(datum, W) == (True, None)


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
    # a Siegel, weakly hyperbolic LVM configuration with m = 1, taken by
    # the check_lvm route: E = {123, 234, 235}, and 7 faces
    pts = [(1, 0), (Q(-1, 2), 1), (Q(-1, 2), -1), (1, Q(1, 3)),
           (1, Q(-1, 3))]
    res = check_lvm(pts, 1, W)
    assert res["siegel"]
    assert res["weak_hyperbolic"]
    assert res["E"] == {frozenset({1, 2, 3}), frozenset({2, 3, 4}),
                        frozenset({2, 3, 5})}
    pf = polytope_faces(pts, W, m=1)
    assert pf.faces
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


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
@example(random.Random(1))
def test_g_lattice_matches_the_reference_complex_inverse(rng):
    # B A^-1 read off one in_basis equals A^-1 by the field step on the
    # real embedding [[re, -im], [im, re]], then the complex product
    m = rng.choice([1, 2])
    pts = [[rng.randint(-3, 3) + rng.choice([0, 0, 1]) * ST
            + rng.choice([0, 0, 0, 1]) * SA for _ in range(2 * m)]
           for _ in range(rng.randint(m + 2, m + 4))]
    if rng.random() < 0.3:   # L_3 - L_1 = i (L_2 - L_1): A singular over C
        pts[2] = [*pts[0]]
        for k in range(m):
            re, im = pts[1][2 * k] - pts[0][2 * k], \
                pts[1][2 * k + 1] - pts[0][2 * k + 1]
            pts[2][2 * k] += -im
            pts[2][2 * k + 1] += re
    diffs = [[Scalar.coerce(x - y) for x, y in zip(p, pts[0])]
             for p in pts[1:m + 1]]
    big = Matrix([[*v[::2], *(-x for x in v[1::2])] for v in diffs] +
                 [[*v[1::2], *v[::2]] for v in diffs])
    inv = ref_inverse(big)
    try:
        Am, Bm, BA = g_lattice(pts, m)
    except RankDeficient:
        return
    except Singular:
        assert inv is None
        return
    re = Matrix([r[:m] for r in inv.rows[:m]])
    im = Matrix([r[:m] for r in inv.rows[m:]])
    if Bm.re.nrows:
        assert BA.re == Bm.re * re - Bm.im * im
        assert BA.im == Bm.re * im + Bm.im * re
    assert BA.re.nrows == BA.im.nrows == len(pts) - m - 1


def test_lvmb_to_fan_requires_balance_and_marker():
    with pytest.raises(NotBalanced):
        lvmb_to_fan(LVMBDatum(1, [(1, 0), (0, 1), (0, 1)], [[1, 2, 3]]))
    # balanced but last point dispensable
    bad = LVMBDatum(1, [(1, 0), (0, 1), (Q(-1, 2), Q(-1, 2)),
                        (Q(-1, 2), Q(-1, 2))],
                    [[1, 2, 3], [2, 3, 4]])
    with pytest.raises(NoIndispensable):
        lvmb_to_fan(bad)


def test_lvmb_to_fan_rejects_an_empty_family():
    # every index is indispensable then, so no point is a ray
    empty = LVMBDatum(1, [(0, 0), (1, 0), (0, 1), (-1, -1)], [])
    with pytest.raises(InputError, match="empty_family"):
        lvmb_to_fan(empty)


def _ref_lvmb_images(datum):
    """The images lvmb_to_fan recovers, the old way: the pivot Gale vectors
    times the field inverse of the greedy basis of the I-rows, when those
    span, else the pivot Gale vectors."""
    vbar = list(gale_affine(datum.points).vectors)
    n = datum.N - 1
    J = [i for i in datum.indispensable() if i != datum.N]
    cols = [vbar[i - 1] for i in range(1, n + 1) if i not in J]
    width = len(vbar[0])
    _, picks = ref_rref([[c[i] for c in cols] for i in range(width)])
    if len(picks) == width:
        T = ref_inverse(Matrix.from_columns([cols[j] for j in picks]))
        vbar = [T.apply(v) for v in vbar]
    return vbar[:n]


def _balanced_lvmb(rng):
    """A datum whose last point balances random points with integer, t and
    a entries, some copied onto others, and whose E sets all hold it."""
    m = rng.choice([1, 2])
    N = rng.randint(2 * m + 2, 2 * m + 4)
    pts = [[rng.randint(-3, 3) + rng.choice([0, 0, 1]) * ST
            + rng.choice([0, 0, 0, 1]) * SA for _ in range(2 * m)]
           for _ in range(N - 1)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        pts[rng.randrange(N - 1)] = list(pts[rng.randrange(N - 1)])
    E = [frozenset(rng.sample(range(1, N), 2 * m)) | {N}
         for _ in range(rng.randint(1, 3))]
    return LVMBDatum(m, _balanced(pts), E)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
@example(random.Random(0))
def test_lvmb_to_fan_matches_the_reference_inverse(rng):
    datum = rng.choice([random_lvmb, _balanced_lvmb])(rng)
    try:
        cf = lvmb_to_fan(datum)
    except QtoricError:
        return
    assert _strs(cf.cal.images) == _strs(_ref_lvmb_images(datum))


def test_lvmb_to_fan_keeps_the_vectors_when_the_rays_do_not_span():
    # points 1 and 2 coincide, so the one Gale vector is (1, -1, 0, 0) and
    # the ray image v_3 = 0 spans nothing
    datum = LVMBDatum(1, [(1, 0), (1, 0), (-1, 1), (-1, -1)], [[1, 2, 4]])
    cf = lvmb_to_fan(datum)
    assert _strs(cf.cal.images[2:]) == [["0"]]
    assert _strs(cf.cal.images) == _strs(_ref_lvmb_images(datum))


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
