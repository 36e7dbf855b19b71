"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget."""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as Q
from math import gcd

from conftest import EMPTY_WITNESS, cocycle_check, gale_bilinear_defect, \
    lemmah_defect, random_complete_fan, random_even_calibrated_fan, \
    shared_rows_are_identity, wps_weights_chart_oracle

from qtoric.atlas import build_irrelevant, chart_matrix, gluing_exponents
from qtoric.calibration import (CalibratedFan, Calibration, kernel_rank,
                                standardize_calibration, trivial_calibration)
from qtoric.gale_lvmb import (build_lvmb, check_lvmb, gale_affine,
                              gale_linear, lvmb_to_fan, roundtrip_marked_iso)
from qtoric.lattice_fan import (QLattice, QuantumFan, comb_type,
                                d_realizable, fan_from_max_cones,
                                validate_fan)
from qtoric.linalg import Matrix
from qtoric.moduli import (act_2d, p2_orbit, p2_sigma, p2_tau,
                           torus_equiv_2d, wps_weights)
from qtoric.morphism import check_cal_morphism, find_cal_morphism
from qtoric.scalars import Parameter, Scalar, Witness

A = Parameter("a")
B = Parameter("b")
T = Parameter("t", "quadratic", 2)
U3 = Parameter("u", "quadratic", 3)
SA, SB, ST, SU = (Scalar.of_param(A), Scalar.of_param(B),
                  Scalar.of_param(T), Scalar.of_param(U3))
W = Witness({A: Q(-7, 3), B: Q(-5, 4), T: Q(3, 2), U3: Q(7, 4)})
ONE, ZERO = Scalar.one(), Scalar.zero()


class criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE] criterion {self.number} ({self.label}): "
              f"{status} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s")
        return False


def p2_deformation_calibrated():
    gamma = QLattice(2, [[1, 0], [0, 1], [SA, SB]])
    fan = fan_from_max_cones(gamma, [[1, 0], [0, 1], [SA, SB]],
                             [[1, 2], [2, 3], [3, 1]])
    return trivial_calibration(fan)


def blowup_calibrated():
    fan = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                             [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1]],
                             [[1, 2], [2, 4], [3, 4], [3, 5], [1, 5]])
    return trivial_calibration(fan)


def p1_calibrated(a):
    gamma = QLattice(1, [[1], [a]])
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


P2DEF_FILE = {
    "dim": 2,
    "params": [{"name": "a", "kind": "transcendental"},
               {"name": "b", "kind": "transcendental"}],
    "witness": {"a": "-7/3", "b": "-5/4"},
    "gamma": [["1", "0"], ["0", "1"], ["a", "b"]],
    "rays": [["1", "0"], ["0", "1"], ["a", "b"]],
    "cones": [[1, 2], [2, 3], [3, 1]],
    "calibration": {"n": 3, "images": [["1", "0"], ["0", "1"], ["a", "b"]],
                    "J": [], "I": [1, 2, 3]},
}

BLOWUP_FILE = {
    "dim": 2, "params": [], "witness": {},
    "gamma": [["1", "0"], ["0", "1"]],
    "rays": [["1", "0"], ["0", "1"], ["-1", "-1"], ["-1", "0"], ["0", "-1"]],
    "cones": [[1, 2], [2, 4], [3, 4], [3, 5], [1, 5]],
}


def run_cli(tmp_path, payload, argv_tail, name="input.json"):
    from qtoric.cli import main
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv_tail + [str(path)])
    return code, json.loads(buf.getvalue())


def test_criterion_1_chart_matrices(tmp_path):
    with criterion(1, "chart matrices", 1.0):
        code, rep = run_cli(tmp_path, P2DEF_FILE, ["atlas"])
        assert code == 0
        charts = {tuple(c["I"]): c for c in rep["charts"]}
        assert charts[(1, 2)]["A"] == [["1", "0"], ["0", "1"]]
        assert charts[(2, 3)]["A"] == [["(-b)/(a)", "1"], ["(1)/(a)", "0"]]
        assert charts[(3, 1)]["A"] == [["0", "(1)/(b)"], ["1", "(-a)/(b)"]]
        assert charts[(1, 2)]["hbar"] == [["a"], ["b"]]
        assert charts[(2, 3)]["hbar"] == [["(-b)/(a)"], ["(1)/(a)"]]
        assert charts[(3, 1)]["hbar"] == [["(1)/(b)"], ["(-a)/(b)"]]
        # library-level symbolic equality after canonicalization
        cf = p2_deformation_calibrated()
        A23, _ = chart_matrix(cf.fan, (2, 3))
        assert A23 == Matrix([[-SB / SA, ONE], [ONE / SA, ZERO]])
        A31, _ = chart_matrix(cf.fan, (3, 1))
        assert A31 == Matrix([[ZERO, ONE / SB], [ONE, -SA / SB]])


def test_criterion_2_gluing_formulas():
    with criterion(2, "gluing formulas", 1.0):
        fan = p2_deformation_calibrated().fan
        # [z,w] -> [z^{-b/a} w, z^{1/a}]
        assert gluing_exponents(fan, (1, 2), (2, 3)) == \
            Matrix([[-SB / SA, ONE / SA], [ONE, ZERO]])
        # [z,w] -> [w^{1/b}, z w^{-a/b}]
        assert gluing_exponents(fan, (1, 2), (3, 1)) == \
            Matrix([[ZERO, ONE], [ONE / SB, -SA / SB]])
        # [z,w] -> [z^{1/b} w, z^{-a/b}]
        assert gluing_exponents(fan, (2, 3), (3, 1)) == \
            Matrix([[ONE / SB, -SA / SB], [ONE, ZERO]])
        for src, dst in (((1, 2), (2, 3)), ((1, 2), (3, 1)),
                         ((2, 3), (3, 1))):
            assert shared_rows_are_identity(fan, src, dst)
        assert cocycle_check(fan)


def test_criterion_3_gale_and_irrelevant(tmp_path):
    with criterion(3, "blow-up Gale and irrelevant set", 1.0):
        code, rep = run_cli(tmp_path, BLOWUP_FILE, ["gale"])
        assert code == 0
        assert rep["A"] == [["1", "1", "0"], ["1", "0", "1"],
                            ["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]
        # the minimal forbidden pairs of the blow-up fan (the published
        # example lists {3,5} in place of {4,5}, but {3,5} spans one of the
        # fan's own maximal cones; the set below is the non-face complement
        # of the example's cones)
        code, rep = run_cli(tmp_path, BLOWUP_FILE, ["irrelevant"])
        assert code == 0
        assert rep["forbidden"] == [[1, 3], [1, 4], [2, 3], [2, 5], [4, 5]]
        cf = blowup_calibrated()
        gale = gale_linear(cf.cal)
        assert [[str(x) for x in v] for v in gale.vectors] == \
            [["1", "1", "0"], ["1", "0", "1"],
             ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        descr = build_irrelevant(cf.fan)
        for c in cf.fan.cones:
            assert descr.allows(c)


def test_criterion_4_morphism_existence():
    with criterion(4, "P1 -> P2 morphism existence", 3.0):
        src = p1_calibrated(SA)
        budgets = []
        t0 = time.monotonic()
        m = find_cal_morphism(src, p2_target(2 * SA, SA), W)
        budgets.append(time.monotonic() - t0)
        assert m is not None
        assert m.L == Matrix([[2], [1]])
        assert m.H == Matrix([[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 0, 1]])
        t0 = time.monotonic()
        assert find_cal_morphism(src, p2_target(SA / 2, SA), W) is None
        budgets.append(time.monotonic() - t0)
        t0 = time.monotonic()
        assert find_cal_morphism(src, p2_target(ONE, SA), W) is None
        budgets.append(time.monotonic() - t0)
        assert all(b < 1.0 for b in budgets)


def test_criterion_5_sqrt2_calibration():
    with criterion(5, "sqrt2 calibration", 1.0):
        gamma = QLattice(1, [[1], [ST]])
        torus = QuantumFan(gamma, [], [[]])
        cal1 = Calibration(gamma, [[1], [ST], [0]], J=[3], I=[])
        cal2 = Calibration(gamma, [[1], [ST], [1]], J=[3], I=[])
        cf1 = CalibratedFan(torus, cal1)
        cf2 = CalibratedFan(torus, cal2)
        L = Matrix([[ST]])
        m = find_cal_morphism(cf1, cf1, W, L=L)
        assert m is not None
        assert m.H == Matrix([[0, 2, 0], [1, 0, 0], [0, 0, 1]])
        assert check_cal_morphism(m, cf1, cf1, W).ok
        assert find_cal_morphism(cf2, cf2, W, L=L) is None


def test_criterion_6_gerbe_ranks():
    with criterion(6, "gerbe ranks", 1.0):
        classical = fan_from_max_cones(QLattice(2, [[1, 0], [0, 1]]),
                                       [[1, 0], [0, 1], [-1, -1]],
                                       [[1, 2], [2, 3], [3, 1]])
        a1, _ = kernel_rank(trivial_calibration(classical).cal)
        assert a1 == 1
        a2, _ = kernel_rank(blowup_calibrated().cal)
        assert a2 == 3


def test_criterion_7_weights():
    with criterion(7, "weighted projective weights", 5.0):
        assert wps_weights(-2, -3) == (1, 2, 3)
        rng = random.Random(1007)
        for _ in range(200):
            a = Q(-rng.randint(1, 20), rng.randint(1, 20))
            b = Q(-rng.randint(1, 20), rng.randint(1, 20))
            wts = wps_weights(a, b)
            assert wts == wps_weights_chart_oracle(a, b)
            assert gcd(gcd(wts[0], wts[1]), wts[2]) == 1


def test_criterion_8_moduli_2d():
    with criterion(8, "2d torus moduli", 10.0):
        rng = random.Random(1008)
        # every rational is equivalent to 0 with an explicit Bezout witness
        for _ in range(100):
            a = Scalar.from_fraction(Q(rng.randint(-30, 30),
                                       rng.randint(1, 30)))
            H = torus_equiv_2d(a, Scalar.zero())
            assert H is not None and act_2d(a, H).is_zero()
        # sqrt2 is not equivalent to sqrt3
        assert torus_equiv_2d(ST, SU) is None
        for p in range(-6, 7):
            if p == 0:
                continue
            for q in range(-6, 7):
                for r in range(-6, 7):
                    for dt in (1, -1):
                        num = dt + q * r
                        if num % p:
                            continue
                        s = num // p
                        if abs(s) > 50:
                            continue
                        if act_2d(ST, Matrix([[p, r], [q, s]])) == SU:
                            raise AssertionError("unexpected equivalence")
        # group-action law on 1000 random triples
        def rand_H():
            M = Matrix.identity(2)
            for _ in range(3):
                i, j = rng.sample(range(2), 2)
                E = [[1, 0], [0, 1]]
                E[i][j] = rng.randint(-4, 4)
                M = M * Matrix(E)
            return M

        checked = 0
        while checked < 1000:
            a = Scalar.from_fraction(Q(rng.randint(-9, 9),
                                       rng.randint(1, 9)))
            H1, H2 = rand_H(), rand_H()
            try:
                lhs = act_2d(a, H1 * H2)
                rhs = act_2d(act_2d(a, H1), H2)
            except Exception:
                continue
            assert lhs == rhs
            checked += 1


def test_criterion_9_p2_isotropy():
    with criterion(9, "P2 moduli isotropy", 1.0):
        rep = p2_orbit(Scalar.from_fraction(-1), Scalar.from_fraction(-1), W)
        assert rep.isotropy == "S3"
        rng = random.Random(1009)
        for _ in range(20):
            a = Q(-rng.randint(2, 40), rng.randint(1, 9))
            if a == -1:
                continue
            rep = p2_orbit(Scalar.from_fraction(a), Scalar.from_fraction(a),
                           W)
            assert rep.isotropy == "Z2(sigma)"
        pt = (SA, SB)
        s2 = p2_sigma(p2_sigma(pt))
        t3 = p2_tau(p2_tau(p2_tau(pt)))
        st2 = p2_sigma(p2_tau(p2_sigma(p2_tau(pt))))
        for img in (s2, t3, st2):
            assert (img[0] - SA).is_zero() and (img[1] - SB).is_zero()


def test_criterion_10_lvmb_roundtrip():
    with criterion(10, "LVMB round trip", 60.0):
        rng = random.Random(1010)
        for _ in range(25):
            d = rng.choice([1, 2, 2, 3])
            cf = random_even_calibrated_fan(rng, d)
            assert cf.cal.n <= 9
            datum = build_lvmb(cf)
            assert check_lvmb(datum, EMPTY_WITNESS).ok
            expected = sorted(list(cf.cal.J) + [datum.N])
            assert datum.indispensable() == expected
            rec = lvmb_to_fan(datum)
            iso = roundtrip_marked_iso(cf, rec, EMPTY_WITNESS)
            assert iso.ok, iso.reason


def test_criterion_11_property_suites():
    with criterion(11, "property suites", 60.0):
        rng = random.Random(1011)
        # Gale bilinear identity and the chart-calibration identity
        for _ in range(50):
            cf = random_even_calibrated_fan(rng, rng.choice([1, 2]))
            images = list(cf.cal.images)
            extra = [ZERO] * cf.cal.d
            for v in images:
                extra = [e - x for e, x in zip(extra, v)]
            vbar = images + [tuple(extra)]
            defect = gale_bilinear_defect(gale_affine(vbar), vbar)
            assert all(x.is_zero() for r in defect.rows for x in r)
            std, _ = standardize_calibration(cf)
            ldef = lemmah_defect(std.cal, gale_linear(std.cal))
            assert all(x.is_zero() for r in ldef.rows for x in r)
        # fan-validation openness under small rational perturbation
        for k in range(50):
            fan = random_complete_fan(rng, 2)
            assert validate_fan(fan, EMPTY_WITNESS).valid
            eps = Q(1, 10 ** 6)
            pert_rays = [
                [x + Scalar.from_fraction(
                    eps * rng.choice([-1, 0, 1])) for x in v]
                for v in fan.rays]
            D = comb_type(fan)
            assert d_realizable(pert_rays, D, EMPTY_WITNESS)
        # completeness facet pairing
        for _ in range(50):
            fan = random_complete_fan(rng, rng.choice([2, 3]))
            maxc = fan.maximal_cones()
            if fan.dim >= 2:
                for i in range(1, fan.nrays + 1):
                    assert sum(1 for c in maxc if i in c) >= 2
            facets = {}
            for c in maxc:
                for i in c:
                    facets[c - {i}] = facets.get(c - {i}, 0) + 1
            assert all(v == 2 for v in facets.values())
