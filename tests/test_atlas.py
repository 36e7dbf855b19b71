import itertools
import random
from fractions import Fraction as Q

import pytest
from conftest import (cocycle_check, cocycle_holds, fan_gluings,
                      lemmah_defect, random_bipyramid_fan, random_circle_fan,
                      random_even_calibrated_fan, shared_rows_are_identity)

import qtoric.atlas as atlas_mod
import qtoric.lattice_fan as lattice_fan_mod
from qtoric.atlas import (atlas_report, build_irrelevant, chart_calibration,
                          chart_matrix, gluing_exponents)
from qtoric.calibration import CalibratedFan, Calibration, trivial_calibration
from qtoric.errors import EmptyIntersection, Singular
from qtoric.gale_lvmb import gale_linear
from qtoric.lattice_fan import QLattice, QuantumFan, fan_from_max_cones
from qtoric.linalg import Matrix, mat_inverse
from qtoric.scalars import Parameter, Scalar, Witness

A = Parameter("a")
B = Parameter("b")
SA, SB = Scalar.of_param(A), Scalar.of_param(B)
ONE, ZERO = Scalar.one(), Scalar.zero()
W = Witness({A: Q(-7, 3), B: Q(-5, 4)})


def p2_deformation():
    gamma = QLattice(2, [[1, 0], [0, 1], [SA, SB]])
    return fan_from_max_cones(gamma, [[1, 0], [0, 1], [SA, SB]],
                              [[1, 2], [2, 3], [3, 1]])


def test_chart_matrices_p2():
    fan = p2_deformation()
    A12, _ = chart_matrix(fan, (1, 2))
    A23, _ = chart_matrix(fan, (2, 3))
    A31, _ = chart_matrix(fan, (3, 1))
    assert A12 == Matrix.identity(2)
    assert A23 == Matrix([[-SB / SA, ONE], [ONE / SA, ZERO]])
    assert A31 == Matrix([[ZERO, ONE / SB], [ONE, -SA / SB]])
    # A_I v_{i_k} = e_k
    for cone, M in (((1, 2), A12), ((2, 3), A23), ((3, 1), A31)):
        for k, i in enumerate(cone):
            col = M.apply(fan.ray(i))
            expected = Matrix.identity(2).column(k)
            assert all((x - y).is_zero() for x, y in zip(col, expected))


def test_chart_matrix_completion_for_low_dimensional_cone():
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                             [[0, 1]], [[1]])
    A1, completion = chart_matrix(fan, (1,))
    assert completion == (1,)
    col = A1.apply(fan.ray(1))
    assert [str(x) for x in col] == ["1", "0"]


def test_chart_matrix_dependent_cone_is_singular():
    fan = QuantumFan(QLattice(2, [[1, 0], [0, 1]]),
                     [[1, 0], [2, 0], [0, 0]], [[1, 2], [3]])
    for cone in ((1, 2), (3,)):
        with pytest.raises(Singular, match="do not extend to a basis"):
            chart_matrix(fan, cone)
    with pytest.raises(Singular):
        gluing_exponents(fan, (1, 2), (2, 1))


def test_gluing_exponents_p2():
    fan = p2_deformation()
    # [z, w] -> [z^{-b/a} w, z^{1/a}]
    M = gluing_exponents(fan, (1, 2), (2, 3))
    assert M == Matrix([[-SB / SA, ONE / SA], [ONE, ZERO]])
    # [z, w] -> [w^{1/b}, z w^{-a/b}]
    M2 = gluing_exponents(fan, (1, 2), (3, 1))
    assert M2 == Matrix([[ZERO, ONE], [ONE / SB, -SA / SB]])
    # [z, w] -> [z^{1/b} w, z^{-a/b}]
    M3 = gluing_exponents(fan, (2, 3), (3, 1))
    assert M3 == Matrix([[ONE / SB, -SA / SB], [ONE, ZERO]])


def test_gluing_identity_and_shared_rows():
    fan = p2_deformation()
    assert gluing_exponents(fan, (1, 2), (1, 2)) == Matrix.identity(2)
    for src, dst in (((1, 2), (2, 3)), ((1, 2), (3, 1)), ((2, 3), (3, 1)),
                     ((2, 3), (1, 2)), ((3, 1), (1, 2)), ((3, 1), (2, 3))):
        assert shared_rows_are_identity(fan, src, dst)


def test_gluing_requires_intersection():
    fan = random_circle_fan(random.Random(0), 5)
    maxc = sorted(fan.maximal_cones(), key=sorted)
    disjoint = [(a, b) for a in maxc for b in maxc if not (a & b)]
    if disjoint:
        with pytest.raises(EmptyIntersection):
            gluing_exponents(fan, disjoint[0][0], disjoint[0][1])


def test_chart_calibrations_p2():
    cf = trivial_calibration(p2_deformation())
    _, hb12 = chart_calibration(cf, (1, 2))
    _, hb23 = chart_calibration(cf, (2, 3))
    _, hb31 = chart_calibration(cf, (3, 1))
    assert hb12 == Matrix([[SA], [SB]])
    assert hb23 == Matrix([[-SB / SA], [ONE / SA]])
    assert hb31 == Matrix([[ONE / SB], [-SA / SB]])


def test_cocycle_p2_and_two_cone_fans():
    assert cocycle_check(p2_deformation())
    fan0 = fan_from_max_cones(QLattice(1, [[1]]), [[1], [-1]], [[1], [2]])
    assert cocycle_check(fan0)


def test_cocycle_randomized_100():
    rng = random.Random(100)
    for i in range(100):
        if i % 3 == 2:
            fan = random_bipyramid_fan(rng, rng.randint(3, 4))
        else:
            fan = random_circle_fan(rng, rng.randint(3, 7))
        assert cocycle_check(fan)


def test_chart_normalization_on_random_fans():
    rng = random.Random(41)
    for _ in range(8):
        fan = random_circle_fan(rng, rng.randint(3, 6))
        eye = Matrix.identity(fan.dim)
        for cone in fan.maximal_cones():
            ordered = tuple(sorted(cone))
            M, _ = chart_matrix(fan, ordered)
            for k, i in enumerate(ordered):
                col = M.apply(fan.ray(i))
                assert all((x - y).is_zero()
                           for x, y in zip(col, eye.column(k)))


def test_gluing_exponents_carry_the_source_chart_to_the_target():
    # M^T A_I = A_J for M = gluing_exponents(I, J), checked on chart
    # matrices alone: circle and bipyramid fans, the p2 deformation, a
    # circle of 2-cones in R^3 with parametric entries (each chart
    # completed by a canonical vector), all in several written orders
    rng = random.Random(7)
    fans = [random_circle_fan(rng, rng.randint(3, 6)) for _ in range(3)]
    fans += [random_bipyramid_fan(rng, rng.randint(3, 5)) for _ in range(2)]
    fans.append(p2_deformation())
    rays = [[1, 0, SA], [0, 1, 0], [-1, SB, 1]]
    fans.append(fan_from_max_cones(QLattice(3, rays + [[0, 0, 1]]), rays,
                                   [[1, 2], [2, 3], [3, 1]]))
    completed = 0
    for fan in fans:
        for I in fan.maximal_cones():
            for J in fan.maximal_cones():
                if not I & J:
                    continue
                I_ = rng.sample(sorted(I), len(I))
                J_ = rng.sample(sorted(J), len(J))
                A_I, completion = chart_matrix(fan, I_)
                completed += bool(completion)
                M = gluing_exponents(fan, I_, J_)
                assert M.transpose() * A_I == chart_matrix(fan, J_)[0]
    assert completed


def test_cocycle_negative_control():
    # a corrupted chart matrix breaks the cocycle equation
    fan = p2_deformation()
    A12, _ = chart_matrix(fan, (1, 2))
    A23, _ = chart_matrix(fan, (2, 3))
    A31, _ = chart_matrix(fan, (3, 1))
    wrong = Matrix([[ONE, ONE], [ZERO, ONE]]) * A31
    good = (A31 * mat_inverse(A12)) == \
        (A31 * mat_inverse(A23)) * (A23 * mat_inverse(A12))
    bad = (wrong * mat_inverse(A12)) == \
        (A31 * mat_inverse(A23)) * (A23 * mat_inverse(A12))
    assert good and not bad


def test_cocycle_oracle_rejects_a_corrupted_gluing():
    fan = p2_deformation()
    gluings = fan_gluings(fan)
    assert cocycle_holds(gluings)
    shear = Matrix([[ONE, ONE], [ZERO, ONE]])
    gluings[(1, 2), (1, 3)] = shear * gluings[(1, 2), (1, 3)]
    assert not cocycle_holds(gluings)


def test_irrelevant_blowup():
    bu = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                            [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1]],
                            [[1, 2], [2, 4], [3, 4], [3, 5], [1, 5]])
    descr = build_irrelevant(bu)
    assert descr.forbidden == [(1, 3), (1, 4), (2, 3), (2, 5), (4, 5)]
    # membership characterization: allowed zero sets are exactly the cones
    for c in bu.cones:
        assert descr.allows(c)
    assert not descr.allows({1, 3})
    assert not descr.allows({1, 3, 5})


def test_irrelevant_p1_and_half_line():
    fan0 = fan_from_max_cones(QLattice(1, [[1]]), [[1], [-1]], [[1], [2]])
    assert build_irrelevant(fan0).forbidden == [(1, 2)]
    half = fan_from_max_cones(QLattice(1, [[1]]), [[1]], [[1]])
    assert build_irrelevant(half).forbidden == []


def test_irrelevant_with_virtual_generators():
    gamma = QLattice(1, [[1], [SA]])
    fan = fan_from_max_cones(gamma, [[1], [-1]], [[1], [2]])
    cal = Calibration(gamma, [[1], [-1], [SA]], J=[3], I=[1, 2])
    descr = build_irrelevant(CalibratedFan(fan, cal))
    assert (3,) in descr.forbidden
    assert (1, 2) in descr.forbidden


def test_delta_H_poset_matches_fan_poset():
    rng = random.Random(55)
    for _ in range(5):
        fan = random_circle_fan(rng, rng.randint(3, 6))
        descr = build_irrelevant(fan)
        assert {frozenset(c) for c in descr.delta_H} == set(fan.cones)


def test_lemmah_identity_connects_charts_to_gale():
    cf = trivial_calibration(p2_deformation())
    gale = gale_linear(cf.cal)
    defect = lemmah_defect(cf.cal, gale)
    assert all(x.is_zero() for r in defect.rows for x in r)


def test_atlas_report_shape():
    cf = trivial_calibration(p2_deformation())
    rep = atlas_report(cf, cone_orders=[(1, 2), (2, 3), (3, 1)])
    assert rep["cocycle"] is True
    assert len(rep["charts"]) == 3
    by_cone = {tuple(c["I"]): c for c in rep["charts"]}
    assert by_cone[(2, 3)]["A"] == [["(-b)/(a)", "1"], ["(1)/(a)", "0"]]
    assert by_cone[(3, 1)]["A"] == [["0", "(1)/(b)"], ["1", "(-a)/(b)"]]
    assert by_cone[(1, 2)]["hbar"] == [["a"], ["b"]]


def _report_cases():
    rng = random.Random(9)
    p2 = p2_deformation()
    return [
        (p2, [(1, 2), (2, 3), (3, 1)]),              # parametric, written
        (trivial_calibration(p2), [(3, 1)]),           # calibrated
        (random_even_calibrated_fan(rng, 2), None),    # virtual generators
        (random_bipyramid_fan(rng, 4), None),          # 3-d
    ]


def _strings(M):
    return [[str(x) for x in r] for r in M.rows]


@pytest.mark.parametrize("case", range(4))
def test_atlas_report_charts_each_maximal_cone_once(monkeypatch, case):
    target, orders = _report_cases()[case]
    fan = getattr(target, "fan", target)
    calls = []
    real = atlas_mod.chart_matrix

    def counting(fan, cone):
        calls.append(frozenset(cone))
        return real(fan, cone)

    monkeypatch.setattr(atlas_mod, "chart_matrix", counting)
    atlas_report(target, cone_orders=orders)
    assert sorted(calls, key=sorted) == sorted(fan.maximal_cones(), key=sorted)


@pytest.mark.parametrize("case", [0, 3])
def test_atlas_report_applies_each_chart_to_each_ray_once(monkeypatch, case):
    # a ray outside the target chart recurs in the gluings from every cone
    # that holds it; QuantumFan.chart_image forms A_to v_i once per (chart,
    # ray)
    target, orders = _report_cases()[case]
    calls = []
    apply_rows = lattice_fan_mod.apply_rows

    def counting(N, D, v):
        calls.append((id(N), tuple(v)))
        return apply_rows(N, D, v)

    monkeypatch.setattr(lattice_fan_mod, "apply_rows", counting)
    rep = atlas_report(target, cone_orders=orders)
    cones = [tuple(c["I"]) for c in rep["charts"]]
    wanted = {(t, i) for s, t in itertools.permutations(cones, 2)
              if set(s) & set(t) for i in s if i not in t}
    assert len(set(calls)) == len(calls) == len(wanted)
    assert len(wanted) < sum(len(set(g["from"]) - set(g["to"]))
                             for g in rep["gluings"])


@pytest.mark.parametrize("case", range(4))
def test_atlas_report_matches_public_per_pair_gluings(case):
    target, orders = _report_cases()[case]
    fan = getattr(target, "fan", target)
    rep = atlas_report(target, cone_orders=orders)
    cones = [tuple(c["I"]) for c in rep["charts"]]
    assert all(t in cones for t in orders or [])
    pairs = [(s, t) for s in cones for t in cones
             if s != t and set(s) & set(t)]
    got = [(tuple(g["from"]), tuple(g["to"])) for g in rep["gluings"]]
    assert sorted(got) == sorted(pairs)
    for g in rep["gluings"]:
        M = gluing_exponents(fan, tuple(g["from"]), tuple(g["to"]))
        assert g["exponents"] == _strings(M)
    for c in rep["charts"]:
        A, completion = chart_matrix(fan, tuple(c["I"]))
        assert c["A"] == _strings(A)
        assert c["completion"] == list(completion)
        if isinstance(target, CalibratedFan):
            _, hbar = chart_calibration(target, tuple(c["I"]))
            assert c["hbar"] == _strings(hbar)
    assert rep["cocycle"] is cocycle_check(fan) is True
