import random
from fractions import Fraction as Q

import pytest
from conftest import (EMPTY_WITNESS, coefficients_by_chart,
                      containing_cones_by_solve, field_chart,
                      minimal_containing_cone_by_solve, random_circle_fan,
                      random_complete_fan, ref_inverse)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattice_fan import _fan_variant

import qtoric.lattice_fan as lattice_fan_mod
from qtoric.calibration import CalibratedFan, Calibration, trivial_calibration
from qtoric.errors import DomainMismatch, Indeterminate, Singular
from qtoric.lattice_fan import (QLattice, QuantumFan, fan_from_max_cones,
                                gamma_contains)
from qtoric.linalg import Matrix
from qtoric.morphism import (CalMorphism, check_cal_iso, check_cal_morphism,
                             check_fan_iso, check_fan_morphism, compose,
                             cone_coefficients, containing_cones,
                             find_cal_morphism, identity_morphism,
                             is_marked_iso, kernel_map,
                             minimal_containing_cone)
from qtoric.scalars import Parameter, Scalar, Witness

A = Parameter("a")
T = Parameter("t", "quadratic", 2)
SA, ST = Scalar.of_param(A), Scalar.of_param(T)
W = Witness({A: Q(-7, 3), T: Q(3, 2)})


def p1_calibrated(a):
    gamma = QLattice(1, [[1], [a]]) if not (
        isinstance(a, int) and a == 0) else QLattice(1, [[1]])
    fan = fan_from_max_cones(gamma, [[1], [-1]], [[1], [2]])
    cal = Calibration(gamma, [[1], [-1], [a]], J=[3], I=[1, 2])
    return CalibratedFan(fan, cal)


def p2_target(x, y):
    gamma = QLattice(2, [[1, 0], [0, 1], [-1, -1], [x, y]])
    fan = fan_from_max_cones(gamma, [[1, 0], [0, 1], [-1, -1]],
                             [[1, 2], [2, 3], [3, 1]])
    cal = Calibration(gamma, [[1, 0], [0, 1], [-1, -1], [x, y]],
                      J=[4], I=[1, 2, 3])
    return CalibratedFan(fan, cal)


def sqrt2_torus(with_unit_virtual):
    gamma = QLattice(1, [[1], [ST]])
    torus = QuantumFan(gamma, [], [[]])
    third = [1] if with_unit_virtual else [0]
    cal = Calibration(gamma, [[1], [ST], third], J=[3], I=[])
    return CalibratedFan(torus, cal)


def test_identity_is_valid():
    cf = p1_calibrated(SA)
    assert check_fan_morphism(Matrix.identity(1), cf.fan, cf.fan, W).ok
    assert check_cal_morphism(identity_morphism(cf), cf, cf, W).ok


def test_sqrt2_fan_morphism_on_torus():
    cf = sqrt2_torus(False)
    res = check_fan_morphism(Matrix([[ST]]), cf.fan, cf.fan, W)
    assert res.ok
    # on the P1-type fan the same map fails the N-combination condition
    gamma = QLattice(1, [[1], [ST]])
    fan = fan_from_max_cones(gamma, [[1], [-1]], [[1], [2]])
    res2 = check_fan_morphism(Matrix([[ST]]), fan, fan, W)
    assert not res2.ok and res2.reason == "integrality"


def test_sqrt2_calibrated_morphism_exists():
    cf = sqrt2_torus(False)
    m = find_cal_morphism(cf, cf, W, L=Matrix([[ST]]))
    assert m is not None
    # H(x, y, z) = (2y, x, z)
    assert m.H == Matrix([[0, 2, 0], [1, 0, 0], [0, 0, 1]])
    assert check_cal_morphism(m, cf, cf, W).ok


def test_sqrt2_calibrated_morphism_missing_for_shifted_calibration():
    cf = sqrt2_torus(True)
    assert find_cal_morphism(cf, cf, W, L=Matrix([[ST]])) is None


def test_p1_p2_family():
    src = p1_calibrated(SA)
    # x = 2a, y = a: morphism with alpha=2 >= beta=1 >= 0
    dst = p2_target(2 * SA, SA)
    m = find_cal_morphism(src, dst, W)
    assert m is not None
    assert m.L == Matrix([[2], [1]])
    assert m.H == Matrix([[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 0, 1]])
    assert check_cal_morphism(m, src, dst, W).ok
    # x not in Za
    assert find_cal_morphism(src, p2_target(SA / 2, SA), W) is None
    assert find_cal_morphism(src, p2_target(Scalar.one(), SA), W) is None


def test_p1_p2_classical_case():
    src = p1_calibrated(0)
    dst = p2_target(Scalar.zero(), Scalar.zero())
    m = find_cal_morphism(src, dst, W)
    assert m is not None
    assert check_cal_morphism(m, src, dst, W).ok


def test_fan_iso_examples():
    fan0 = fan_from_max_cones(QLattice(1, [[1]]), [[1], [-1]], [[1], [2]])
    res = check_fan_iso(Matrix([[-1]]), fan0, fan0, EMPTY_WITNESS)
    assert res.ok and res.details["permutation"] == {1: 2, 2: 1}
    # scaling by 2 on the classical P1 fan: 2Z != Z
    res2 = check_fan_iso(Matrix([[2]]), fan0, fan0, EMPTY_WITNESS)
    assert not res2.ok
    # -Id on the a = sqrt2 fan is a fan iso but not a calibrated one
    cf = p1_calibrated(ST)
    res3 = check_fan_iso(Matrix([[-1]]), cf.fan, cf.fan, W)
    assert res3.ok
    H = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    res4 = check_cal_morphism(CalMorphism(Matrix([[-1]]), H, {3: 3}),
                              cf, cf, W)
    assert not res4.ok and res4.reason == "diagram"


def test_fan_iso_singular_map():
    fan0 = fan_from_max_cones(QLattice(1, [[1]]), [[1], [-1]], [[1], [2]])
    assert check_fan_iso(Matrix([[0]]), fan0, fan0,
                         EMPTY_WITNESS).reason == "singular"
    fan2 = fan_from_max_cones(QLattice.standard(2),
                              [[1, 0], [0, 1], [-1, -1]],
                              [[1, 2], [2, 3], [3, 1]])
    L = Matrix([[SA, 1], [SA * SA, SA]])
    assert check_fan_iso(L, fan2, fan2, W).reason == "singular"


def test_minus_id_between_opposite_calibrations():
    src = p1_calibrated(SA)
    dst = p1_calibrated(-SA)
    H = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = CalMorphism(Matrix([[-1]]), H, {3: 3})
    assert check_cal_morphism(m, src, dst, W).ok
    assert check_cal_iso(m, src, dst, W).ok
    assert is_marked_iso(m, src, dst, W).ok


def test_compose_examples():
    cf = p1_calibrated(0)
    ident = identity_morphism(cf)
    H = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = CalMorphism(Matrix([[-1]]), H, {3: 3})
    assert check_cal_morphism(m, cf, cf, W).ok
    c1 = compose(m, ident)
    assert c1.L == m.L and c1.H == m.H
    c2 = compose(m, m)
    assert c2.L == Matrix.identity(1) and c2.H == Matrix.identity(3)
    assert check_cal_morphism(c2, cf, cf, W).ok


def test_compose_domain_mismatch():
    cf = p1_calibrated(0)
    src = p1_calibrated(SA)
    dst = p2_target(2 * SA, SA)
    m = find_cal_morphism(src, dst, W)
    with pytest.raises(DomainMismatch):
        compose(m, m)
    _ = cf


def test_composition_closure_randomized():
    rng = random.Random(19)
    for _ in range(8):
        fan = random_circle_fan(rng, rng.randint(3, 5))
        cf = trivial_calibration(fan)
        ident = identity_morphism(cf)
        m = compose(ident, ident)
        assert check_cal_morphism(m, cf, cf, EMPTY_WITNESS).ok


def test_iso_implies_morphism_both_ways():
    fan0 = fan_from_max_cones(QLattice(1, [[1]]), [[1], [-1]], [[1], [2]])
    L = Matrix([[-1]])
    assert check_fan_iso(L, fan0, fan0, EMPTY_WITNESS).ok
    assert check_fan_morphism(L, fan0, fan0, EMPTY_WITNESS).ok
    from qtoric.linalg import mat_inverse
    assert check_fan_morphism(mat_inverse(L), fan0, fan0, EMPTY_WITNESS).ok


def test_cal_iso_inverse_is_valid():
    src = p1_calibrated(SA)
    dst = p1_calibrated(-SA)
    H = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = CalMorphism(Matrix([[-1]]), H, {3: 3})
    assert check_cal_iso(m, src, dst, W).ok
    from qtoric.linalg import mat_inverse
    inv = CalMorphism(mat_inverse(m.L), mat_inverse(m.H),
                      {v: k for k, v in m.s.items()})
    assert check_cal_iso(inv, dst, src, W).ok
    roundtrip = compose(m, inv)
    assert roundtrip.L == Matrix.identity(1)
    assert roundtrip.H == Matrix.identity(3)


def test_marked_isos_form_subgroup():
    cf = p1_calibrated(0)
    H = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = CalMorphism(Matrix([[-1]]), H, {3: 3})
    assert is_marked_iso(m, cf, cf, W).ok
    prod = compose(m, m)
    assert is_marked_iso(prod, cf, cf, W).ok
    assert is_marked_iso(identity_morphism(cf), cf, cf, W).ok


def test_kernel_map_examples():
    cf = p1_calibrated(0)
    K = kernel_map(identity_morphism(cf), cf, cf)
    assert K == [[1, 0], [0, 1]]
    H = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = CalMorphism(Matrix([[-1]]), H, {3: 3})
    K2 = kernel_map(m, cf, cf)
    assert K2 == [[1, 0], [0, 1]]
    # calibration with no Z-relations: trivial kernel, empty matrix
    gamma = QLattice(1, [[1], [SA]])
    torus = QuantumFan(gamma, [], [[]])
    cal = Calibration(gamma, [[1], [SA]], J=[], I=[])
    cfi = CalibratedFan(torus, cal)
    K3 = kernel_map(identity_morphism(cfi), cfi, cfi)
    assert K3 == []


def test_diagram_identity_for_valid_morphisms():
    src = p1_calibrated(SA)
    dst = p2_target(2 * SA, SA)
    m = find_cal_morphism(src, dst, W)
    assert m.L * src.cal.matrix() == dst.cal.matrix() * m.H


def outcome(f, *args):
    try:
        out = f(*args)
    except Indeterminate:
        return "Indeterminate"
    return list(out.items()) if isinstance(out, dict) else out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["rational", "transcendental", "quadratic"]))
def test_containment_by_charts_matches_one_solve_per_cone(seed, kind):
    """cone_coefficients, containing_cones and minimal_containing_cone
    against one solve_right per (cone, point), on random complete fans
    sheared by x (rational, a or t = sqrt 2) with each ray scaled by c or
    c (3 + x), both positive, sometimes with maximal cones left out so that points
    fall outside the fan."""
    rng = random.Random(seed)
    x = {"rational": Scalar.from_fraction(Q(rng.randint(-2, 2),
                                              rng.randint(1, 3))),
         "transcendental": SA, "quadratic": ST}[kind]
    w = EMPTY_WITNESS if kind == "rational" else W
    base = random_complete_fan(rng, rng.randint(1, 3))
    d = base.dim
    rays = []
    for v in base.rays:
        v = list(v)
        if d > 1:
            v[0] = v[0] + x * v[-1]
        scale = Q(rng.randint(1, 4), rng.randint(1, 3)) * (
            3 + x if rng.random() < 0.3 else 1)
        rays.append([scale * c for c in v])
    maxc = [sorted(c) for c in base.maximal_cones()]
    if len(maxc) > 2 and rng.random() < 0.5:
        maxc = rng.sample(maxc, rng.randint(1, len(maxc) - 1))
    fan = fan_from_max_cones(QLattice(d, rays), rays, maxc)
    cones = sorted(fan.cones, key=sorted)
    points = [[Scalar.zero()] * d, rng.choice(rays)]
    L = Matrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
    points.append(L.apply(rng.choice(rays)))
    for _ in range(2):
        c = rng.choice(cones)
        p = [Scalar.zero()] * d
        for i in c:
            k = rng.choice([0, 1, Q(1, 2), 3])
            p = [u + k * v for u, v in zip(p, fan.ray(i))]
        points.append(p)
    points.append([-u for u in rng.choice(rays)])
    points.append([rng.randint(-3, 3) for _ in range(d)])
    for p in points:
        found = outcome(containing_cones_by_solve, fan, p, w)
        assert outcome(containing_cones, fan, p, w) == found
        assert outcome(minimal_containing_cone, fan, p, w) == \
            outcome(minimal_containing_cone_by_solve, fan, p, w)
        # containing_cones_by_solve is cone_coefficients_by_solve on each
        # cone, so it holds the reference answer for every cone
        for c in cones if found != "Indeterminate" else ():
            assert outcome(cone_coefficients, fan, c, p, w) == \
                dict(found).get(c)


def test_a_point_certified_outside_a_cone_is_not_indeterminate():
    # p = (a - 1/2, -1) has coordinates (a - 1/2, -1) in the chart of
    # [1, 2]: the first vanishes at a = 1/2, the second certifies that p is
    # outside.  [3, 1] holds p with coefficients (a + 1/2, 1).
    w = Witness({A: Q(1, 2)})
    fan = fan_from_max_cones(QLattice.standard(2), [[1, 0], [0, 1], [-1, -1]],
                             [[1, 2], [2, 3], [3, 1]])
    p = [SA - Q(1, 2), -1]
    assert cone_coefficients(fan, [1, 2], p, w) is None
    assert containing_cones(fan, p, w) == {
        frozenset({1, 3}): (SA + Q(1, 2), Scalar.one())}
    with pytest.raises(Indeterminate, match=r"^a-1/2 vanishes at the"):
        cone_coefficients(fan, [1, 2], [SA - Q(1, 2), 1], w)


def test_check_fan_morphism_applies_each_chart_to_each_image_once(
        monkeypatch):
    # the cone and the ray containment ask for the same (target cone,
    # image) pairs; QuantumFan.chart_image forms each once per fan
    calls = []
    apply_rows = lattice_fan_mod.apply_rows

    def counting(N, D, v):
        calls.append((id(N), tuple(v)))
        return apply_rows(N, D, v)

    monkeypatch.setattr(lattice_fan_mod, "apply_rows", counting)
    rays = [[1, 0], [SA, 1 - SA], [-1, SA]]
    pf = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1], [SA, 0]]), rays,
                            [[1, 2], [2, 3], [3, 1]])
    cube = random_complete_fan(random.Random(3), 3)
    double = Matrix([[2 * (i == j) for j in range(3)] for i in range(3)])
    for fan, L in ((pf, Matrix.identity(2)), (cube, double)):
        calls.clear()
        assert check_fan_morphism(L, fan, fan, W).ok
        assert calls and len(set(calls)) == len(calls)
        assert len(calls) <= len(fan.maximal_cones()) * fan.nrays
    # an undecided sign is read again, and raises again, on a cached image
    w = Witness({A: Q(1, 2)})
    fan = fan_from_max_cones(QLattice.standard(2), [[1, 0], [0, 1], [-1, -1]],
                             [[1, 2], [2, 3], [3, 1]])
    p = [SA - Q(1, 2), 1]
    assert decided(cone_coefficients, fan, [1, 2], p, w) == \
        decided(cone_coefficients, fan, [1, 2], p, w) == \
        ("Indeterminate", "a-1/2 vanishes at the witness but is not "
         "symbolically zero")


def decided(f, *args):
    """f(*args), or the Indeterminate it raises with its message, or
    Singular."""
    try:
        return f(*args)
    except Indeterminate as e:
        return "Indeterminate", str(e)
    except Singular:
        return "Singular"


def test_a_chart_denominator_that_vanishes_decides_nothing():
    # the rays (1, 0) and (1, a + 7/3) are dependent at a = -7/3, so the
    # chart's denominator D vanishes there; the canonical coefficients
    # decide where they do not vanish, and name themselves where they do
    fan = fan_from_max_cones(QLattice.standard(2),
                             [[1, 0], [1, SA + Q(7, 3)]], [[1, 2]])
    N, D, _ = fan.chart_rows([1, 2])
    assert W.sign(D) == 0 and not D.is_const()
    A = field_chart(fan, [1, 2])
    two = 2 * (SA + Q(7, 3))
    cases = {(1, SA + Q(7, 3)): (0, 1), (3, two): (1, 2), (-1, two): None,
             (0, 1): "Indeterminate"}
    for p, want in cases.items():
        got = decided(cone_coefficients, fan, [1, 2], p, W)
        assert got == decided(coefficients_by_chart, A, 2, p, W)
        assert got == want or got[0] == want


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(["complete", "duplicate", "misplaced",
                             "parametric", "folded", "wound"]))
def test_cone_coefficients_match_the_field_chart(seed, d, kind):
    """cone_coefficients against A.apply and sign_at, with A from the field
    step, on every maximal cone of the _fan_variant fans: the in/out answer,
    the coefficients and the Indeterminate message.  The "parametric" fans
    have cones whose chart denominator vanishes at W, and the points
    include multiples of a + 7/3, which vanishes there, and of 1/(a + 2).
    The maximal cones come in sorted order."""
    rng = random.Random(seed)
    fan = _fan_variant(rng, d, kind)
    rays = [list(v) for v in fan.rays]
    points = [rng.choice(rays), [-x for x in rng.choice(rays)],
              [rng.randint(-3, 3) for _ in range(d)]]
    for _ in range(3):
        p = [Scalar.zero()] * d
        for v in rng.sample(rays, d):
            k = rng.choice([1, Q(1, 2), -1, SA + Q(7, 3), -SA - Q(7, 3),
                            1 / (SA + 2)])
            p = [u + k * x for u, x in zip(p, v)]
        points.append(p)
    assert list(fan.maximal_cones()) == sorted(fan.maximal_cones(), key=sorted)
    for cone in fan.maximal_cones():
        A = field_chart(fan, cone)
        for p in points:
            want = "Singular" if A is None else \
                decided(coefficients_by_chart, A, len(cone), p, W)
            assert decided(cone_coefficients, fan, cone, p, W) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       kind=st.sampled_from(["complete", "misplaced", "parametric"]),
       how=st.sampled_from(["iso", "double", "half", "singular", "a"]))
def test_check_fan_iso_lattice_steps_match_the_reference_inverse(
        seed, d, kind, how):
    # L^-1 Gamma' read off one in_basis of [L | Gamma'] decides as the
    # field inverse of L applied to each generator of Gamma' does
    rng = random.Random(seed)
    fan = _fan_variant(rng, d, kind)
    M = Matrix.identity(d)
    for _ in range(4):
        i, j = rng.sample(range(d), 2)
        E = [[int(r == c) + (r == i and c == j) * rng.randint(-2, 2)
              for c in range(d)] for r in range(d)]
        M = M * Matrix(E)
    dst = QuantumFan(QLattice(d, [M.apply(g) for g in fan.gamma.generators]),
                     [M.apply(v) for v in fan.rays], fan.cones)
    L = {"iso": M, "double": M.scale(2), "half": M.scale(Q(1, 2)),
         "singular": Matrix([M.rows[0]] * d), "a": M.scale(SA)}[how]
    inv = ref_inverse(L)
    ref = ("singular" if inv is None else "lattice_forward" if any(
        gamma_contains(dst.gamma, L.apply(g)) is None
        for g in fan.gamma.generators) else "lattice_backward" if any(
        gamma_contains(fan.gamma, inv.apply(g)) is None
        for g in dst.gamma.generators) else None)
    reason = check_fan_iso(L, fan, dst, W).reason
    if ref is None:
        assert reason not in ("singular", "lattice_forward",
                              "lattice_backward")
    else:
        assert reason == ref
