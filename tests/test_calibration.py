import random
from fractions import Fraction as Q

import pytest
from conftest import EMPTY_WITNESS, int_rank, random_even_calibrated_fan

from qtoric.calibration import (CalibratedFan, Calibration, induced_fan,
                                kernel_rank, standardize_calibration,
                                trivial_calibration)
from qtoric.errors import NotGammaComplete
from qtoric.lattice_fan import (QLattice, QuantumFan, comb_type,
                                fan_from_max_cones, gamma_rank)
from qtoric.linalg import Matrix
from qtoric.morphism import check_cal_morphism, check_fan_morphism
from qtoric.scalars import Parameter, Scalar, Witness

A = Parameter("a")
B = Parameter("b")
SA, SB = Scalar.of_param(A), Scalar.of_param(B)
W = Witness({A: Q(-7, 3), B: Q(-5, 4)})


def p2_def_calibrated():
    gamma = QLattice(2, [[1, 0], [0, 1], [SA, SB]])
    fan = fan_from_max_cones(gamma, [[1, 0], [0, 1], [SA, SB]],
                             [[1, 2], [2, 3], [3, 1]])
    return trivial_calibration(fan)


def classical_p2_calibrated():
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                             [[1, 0], [0, 1], [-1, -1]],
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


def test_trivial_calibration_images():
    cf = classical_p2_calibrated()
    # h(x,y,z) = (x - z, y - z)
    assert cf.cal.matrix() == Matrix([[1, 0, -1], [0, 1, -1]])
    cfd = p2_def_calibrated()
    # h(x,y,z) = (x + az, y + bz)
    assert cfd.cal.matrix() == Matrix([[1, 0, SA], [0, 1, SB]])
    assert cfd.cal.J == () and cfd.cal.I == (1, 2, 3)


def test_trivial_calibration_of_standard_fan_is_identity():
    # fan with no rays beyond the canonical basis, Gamma = Z^d
    fan = fan_from_max_cones(QLattice.standard(3),
                             [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                             [[1, 2, 3]])
    cf = trivial_calibration(fan)
    assert cf.cal.matrix() == Matrix.identity(3)
    assert cf.cal.J == () and cf.cal.I == (1, 2, 3)


def test_trivial_calibration_needs_gamma_complete():
    gamma = QLattice(1, [[1], [SA]])
    fan = fan_from_max_cones(gamma, [[1], [-1]], [[1], [2]])
    with pytest.raises(NotGammaComplete):
        trivial_calibration(fan)


def test_kernel_rank_examples():
    # generic irrational: no Z-relation
    a0, basis0 = kernel_rank(p2_def_calibrated().cal)
    assert a0 == 0 and basis0 == []
    a1, basis1 = kernel_rank(classical_p2_calibrated().cal)
    assert a1 == 1 and basis1 == [(1, 1, 1)]
    a3, _ = kernel_rank(blowup_calibrated().cal)
    assert a3 == 3


def test_kernel_rank_of_non_affine_images():
    a = Scalar.of_param(Parameter("a"))
    images = [[1], [a * a], [1 + a * a]]
    cal = Calibration(QLattice(1, images), images, [], [1, 2, 3])
    rank_, basis = kernel_rank(cal)
    assert rank_ == 1 and basis in ([(1, 1, -1)], [(-1, -1, 1)])


def test_kernel_rank_nullity():
    rng = random.Random(23)
    for _ in range(10):
        cf = random_even_calibrated_fan(rng, rng.choice([1, 2]))
        a, basis = kernel_rank(cf.cal)
        assert a == cf.cal.n - gamma_rank(QLattice(cf.cal.d, cf.cal.images))
        assert len(basis) == a
        if basis:
            assert int_rank([list(b) for b in basis]) == a


def test_induced_fan_p2():
    cf = p2_def_calibrated()
    ind = induced_fan(cf)
    assert ind.dim == 3 and ind.nrays == 3
    assert comb_type(ind).poset == comb_type(cf.fan).poset
    eye = Matrix.identity(3)
    assert tuple(ind.rays[0]) == eye.column(0)


def test_induced_fan_p1_with_virtual():
    cf = p1_calibrated()
    ind = induced_fan(cf)
    assert ind.dim == 3 and ind.nrays == 2
    eye = Matrix.identity(3)
    assert tuple(ind.rays[0]) == eye.column(0)
    assert tuple(ind.rays[1]) == eye.column(1)
    assert comb_type(ind).poset == comb_type(cf.fan).poset


def test_induced_fan_of_torus():
    torus = QuantumFan(QLattice(1, [[1], [SA]]), [], [[]])
    cal = Calibration(QLattice(1, [[1], [SA]]), [[1], [SA], [0]],
                      J=[3], I=[])
    cf = CalibratedFan(torus, cal)
    ind = induced_fan(cf)
    assert ind.cones == frozenset({frozenset()})


def test_standardize_calibration_trivial_stays():
    cf = p2_def_calibrated()
    std, (L, H, s) = standardize_calibration(cf)
    assert L == Matrix.identity(2)
    assert H == Matrix.identity(3)
    assert s == {}
    assert std.cal.matrix() == cf.cal.matrix()


def test_standardize_calibration_moves_virtual_to_tail():
    gamma = QLattice(1, [[1], [SA]])
    fan = fan_from_max_cones(gamma, [[1], [-1]], [[1], [2]])
    cal = Calibration(gamma, [[1], [SA], [-1]], J=[2], I=[1, 3])
    cf = CalibratedFan(fan, cal)
    std, (L, H, s) = standardize_calibration(cf)
    assert std.cal.J == (3,)
    assert s == {2: 3}
    assert std.cal.matrix() == Matrix([[1, -1, SA]])
    res = check_cal_morphism(
        __import__("qtoric.morphism", fromlist=["CalMorphism"]).CalMorphism(
            L, H, s), cf, std, W)
    assert res.ok, res.reason


def test_standardize_calibration_random_roundtrip():
    rng = random.Random(4)
    for _ in range(8):
        cf = random_even_calibrated_fan(rng, rng.choice([1, 2]))
        std, (L, H, s) = standardize_calibration(cf)
        d = cf.cal.d
        for i in range(1, d + 1):
            img = std.cal.image(i)
            expected = Matrix.identity(d).column(i - 1)
            assert all((x - y).is_zero() for x, y in zip(img, expected))
        assert std.cal.J == tuple(range(cf.cal.n - len(cf.cal.J) + 1,
                                        cf.cal.n + 1))
        from qtoric.morphism import CalMorphism
        res = check_cal_morphism(CalMorphism(L, H, s), cf, std,
                                 EMPTY_WITNESS)
        assert res.ok, res.reason


def test_h_identity_commutation_to_induced_fan():
    # (h, Id) commutes: L h_src = h_tgt H with L = h, H = Id, and h is a
    # fan morphism from the induced fan to the fan
    for cf in (p2_def_calibrated(), p1_calibrated()):
        ind = induced_fan(cf)
        h = cf.cal.matrix()
        ident = Matrix.identity(cf.cal.n)
        assert h * ident == cf.cal.matrix() * ident
        res = check_fan_morphism(h, ind, cf.fan, W)
        assert res.ok, res.reason
