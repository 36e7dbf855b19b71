"""Shared test helpers: random rational fans and calibrations, and the
reference deciders that fast paths are compared against."""

import itertools
import math
import random
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qtoric import lattice_fan, lp
from qtoric.atlas import gluing_exponents
from qtoric.errors import Indeterminate, UnsupportedEntries, UnsupportedField
from qtoric.calibration import CalibratedFan, Calibration
from qtoric.gale_lvmb import GaleData
from qtoric.lattice_fan import (QLattice, QuantumFan, ValidationReport,
                                _is_complete, fan_from_max_cones)
from qtoric.linalg import (Matrix, hnf, int_solve, pivot, rank,
                           solve_right)
from qtoric.scalars import (Parameter, Poly, Scalar, Sign, Witness,
                            poly_divexact, poly_gcd, sign_at)

Q = Fraction


def rand_fraction(rng, lo=-6, hi=6, max_den=5, nonzero=False):
    while True:
        f = Q(rng.randint(lo, hi), rng.randint(1, max_den))
        if not nonzero or f != 0:
            return f


def random_circle_fan(rng, p) -> QuantumFan:
    """Complete simplicial fan in R^2: p distinct rational directions in
    cyclic order with every consecutive gap under 180 degrees, consecutive
    pairs as maximal cones."""
    while True:
        dirs = set()
        while len(dirs) < p:
            x = rng.randint(-9, 9)
            y = rng.randint(-9, 9)
            if x == 0 and y == 0:
                continue
            g = math.gcd(abs(x), abs(y))
            dirs.add((x // g, y // g))
        dirs = sorted(dirs, key=lambda v: math.atan2(v[1], v[0]))
        gaps_ok = all(
            dirs[i][0] * dirs[(i + 1) % p][1]
            - dirs[i][1] * dirs[(i + 1) % p][0] > 0
            for i in range(p))
        if gaps_ok:
            break
    rays = [list(v) for v in dirs]
    cones = [[i + 1, (i + 1) % p + 1] for i in range(p)]
    gamma = QLattice(2, rays)
    return fan_from_max_cones(gamma, rays, cones)


def random_bipyramid_fan(rng, k) -> QuantumFan:
    """Complete simplicial fan in R^3: k planar directions plus two poles,
    cones (i, i+1, pole)."""
    base = random_circle_fan(rng, k)
    rays = [list(v) + [Scalar.zero()] for v in base.rays]
    north = [0, 0, 1]
    south = [0, 0, -1]
    rays = rays + [north, south]
    n_idx, s_idx = k + 1, k + 2
    cones = []
    for i in range(k):
        a, b = i + 1, (i + 1) % k + 1
        cones.append([a, b, n_idx])
        cones.append([a, b, s_idx])
    gamma = QLattice(3, rays)
    return fan_from_max_cones(gamma, rays, cones)


def random_complete_fan(rng, d) -> QuantumFan:
    if d == 1:
        return fan_from_max_cones(QLattice(1, [[1], [-1]]),
                                  [[1], [-1]], [[1], [2]])
    if d == 2:
        return random_circle_fan(rng, rng.randint(3, 6))
    return random_bipyramid_fan(rng, rng.randint(3, 5))


def random_even_calibrated_fan(rng, d) -> CalibratedFan:
    """Complete simplicial maximal-length calibrated fan with n - d even:
    a random complete fan trivially calibrated, padded with virtual
    generators whose images are small lattice combinations of the rays."""
    fan = random_complete_fan(rng, d)
    p = fan.nrays
    extra = (p - d) % 2
    n = p + extra + 2 * rng.randint(0, 1)
    images = [list(v) for v in fan.rays]
    for _ in range(n - p):
        coeffs = [rng.randint(-2, 2) for _ in range(p)]
        img = [Scalar.zero()] * d
        for c, v in zip(coeffs, fan.rays):
            img = [x + Scalar.coerce(c) * y for x, y in zip(img, v)]
        images.append(img)
    J = list(range(p + 1, n + 1))
    I = list(range(1, p + 1))
    cal = Calibration(fan.gamma, images, J, I)
    return CalibratedFan(fan, cal)


def plain_witness(**vals) -> Witness:
    return Witness({Parameter(k): Q(v) for k, v in vals.items()})


EMPTY_WITNESS = Witness({})


# -- interval evaluation at the witness: the reference for exact signs ------

def _root_enclosure(p: Parameter, root_sign: int, bits: int):
    """Rational enclosure of +-sqrt(D), width 2^(1-bits) at most."""
    scale = 1 << bits
    n = isqrt(p.D.numerator * p.D.denominator * scale * scale)
    den = p.D.denominator * scale
    lo, hi = Q(n, den), Q(n + 1, den)
    return (lo, hi) if root_sign > 0 else (-hi, -lo)


def _interval_poly(terms, w: Witness, bits: int):
    """Interval of the flat terms at the witness."""
    lo, hi = Q(0), Q(0)
    for mono, c in terms.items():
        tlo, thi = Q(c), Q(c)
        for name, e in mono:
            p, v = w.values[name]
            plo, phi = (_root_enclosure(p, v, bits) if p.kind == "quadratic"
                        else (v, v))
            for _ in range(e):
                cands = (tlo * plo, tlo * phi, thi * plo, thi * phi)
                tlo, thi = min(cands), max(cands)
        lo, hi = lo + tlo, hi + thi
    return lo, hi


def interval_sign(s: Scalar, w: Witness, bits: int):
    """Sign of s at the witness by interval evaluation at the given
    precision, or None when the interval does not decide it."""
    if s.is_rational():
        return Sign((s.q > 0) - (s.q < 0))
    nlo, nhi = _interval_poly(s.num.flat(), w, bits)
    dlo, dhi = _interval_poly(s.den.flat(), w, bits)
    if dlo <= 0 <= dhi:
        return None
    cands = (nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi)
    lo, hi = min(cands), max(cands)
    if lo > 0:
        return Sign.POSITIVE
    if hi < 0:
        return Sign.NEGATIVE
    return None


def approx(s: Scalar, w: Witness, bits: int = 256) -> Fraction:
    """A rational near s at the witness: the midpoint of its interval
    evaluation (a canonical denominator is exact there)."""
    nlo, nhi = _interval_poly(s.num.flat(), w, bits)
    dlo, _ = _interval_poly(s.den.flat(), w, bits)
    return (nlo + nhi) / (2 * dlo)


# -- the scalar path before the K form: quadratic parameters as polynomial
#    variables reduced by t^2 = D, the reference for Scalar ------------------

def _ref_product(a: dict, b: dict, params: dict) -> dict:
    """The product of two term dicts, quadratic exponents reduced."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            merged = dict(m1)
            for name, e in m2:
                merged[name] = merged.get(name, 0) + e
            c, mono = c1 * c2, []
            for name, e in sorted(merged.items()):
                if params[name].kind == "quadratic":
                    c, e = c * params[name].D ** (e // 2), e % 2
                if e:
                    mono.append((name, e))
            out[tuple(mono)] = out.get(tuple(mono), 0) + c
    return {m: c for m, c in out.items() if c}


def _ref_canonical(num: dict, den: dict, params: dict):
    """num/den with den free of quadratic parameters (conjugation by the
    first one in den, until none is left), divided by the gcd of den and
    the transcendental coefficients of num, and den monic in lex order."""
    if not num:
        return {}, {(): Q(1)}
    quadratic = {n for n, p in params.items() if p.kind == "quadratic"}
    while True:
        qs = sorted(v for m in den for v, _ in m if v in quadratic)
        if not qs:
            break
        conj = {m: -c if qs[0] in dict(m) else c for m, c in den.items()}
        num = _ref_product(num, conj, params)
        den = _ref_product(den, conj, params)
    pieces = {}
    for m, c in num.items():
        q = tuple(x for x in m if x[0] in quadratic)
        pieces.setdefault(q, {})[tuple(x for x in m if x not in q)] = c
    g = Poly(den)
    for terms in pieces.values():
        g = poly_gcd(g, Poly(terms))
    den = poly_divexact(Poly(den), g).terms
    num = {tuple(sorted(q + m)): c for q, terms in pieces.items()
           for m, c in poly_divexact(Poly(terms), g).terms.items()}
    vorder = sorted({v for m in den for v, _ in m})
    lc = den[max(den, key=lambda m: tuple(dict(m).get(v, 0)
                                          for v in vorder))]
    return ({m: c / lc for m, c in num.items()},
            {m: c / lc for m, c in den.items()})


def _ref_str(terms: dict) -> str:
    if not terms:
        return "0"
    vorder = sorted({v for m in terms for v, _ in m})
    out = ""
    for mono in sorted(terms, reverse=True,
                       key=lambda m: tuple(dict(m).get(v, 0) for v in vorder)):
        c = terms[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in mono]
        body = "*".join(([] if factors and abs(c) == 1 else [str(abs(c))])
                        + factors)
        out += ("-" if c < 0 else "+" if out else "") + body
    return out


class RefScalar:
    """A scalar as before the K form: canonical num/den term dicts over all
    parameter names, and the parameters it was computed from (none when it
    is rational)."""

    def __init__(self, num, den, params):
        self.num, self.den = _ref_canonical(num, den, params)
        self.params = {} if self.is_rational() else params

    @staticmethod
    def of(x):
        if isinstance(x, Parameter):
            return RefScalar({((x.name, 1),): Q(1)}, {(): Q(1)}, {x.name: x})
        return RefScalar({(): Q(x)} if x else {}, {(): Q(1)}, {})

    def is_rational(self):
        return self.num.keys() <= {()} and self.den.keys() == {()}

    def _combine(self, other, num, den):
        params = {**self.params, **other.params}
        return RefScalar(_ref_product(*num, params),
                         _ref_product(*den, params), params)

    def __add__(self, other):
        params = {**self.params, **other.params}
        a = _ref_product(self.num, other.den, params)
        for m, c in _ref_product(other.num, self.den, params).items():
            a[m] = a.get(m, 0) + c
        return RefScalar({m: c for m, c in a.items() if c},
                         _ref_product(self.den, other.den, params), params)

    def __neg__(self):
        return RefScalar({m: -c for m, c in self.num.items()}, self.den,
                         self.params)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return self._combine(other, (self.num, other.num),
                             (self.den, other.den))

    def __truediv__(self, other):
        return self._combine(other, (self.num, other.den),
                             (self.den, other.num))

    def __str__(self):
        if self.is_rational():
            return str(self.num.get((), Q(0)))
        if self.den == {(): 1}:
            return _ref_str(self.num)
        return f"({_ref_str(self.num)})/({_ref_str(self.den)})"

    def __hash__(self):
        if self.is_rational():
            return hash(self.num.get((), Q(0)))
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))


def ref_value(r: RefScalar, w: Witness):
    """r at the witness: each term's quadratic parameters replaced by their
    roots, sign times the positive root Scalar.of_param(p).q, and its
    transcendental ones by their values, summed in K."""
    def at(terms):
        total = Q(0)
        for mono, c in terms.items():
            for name, e in mono:
                p, v = w.values[name]
                x = v * Scalar.of_param(p).q if p.kind == "quadratic" else v
                for _ in range(e):
                    c = c * x
            total = total + c
        return total

    den = at(r.den)
    if not den:
        raise Indeterminate("denominator vanishes at the witness")
    return at(r.num) / den


def ref_quadratic_surd(r: RefScalar):
    """moduli.quadratic_surd before the K form, on its parameters."""
    quad = [p for p in r.params.values() if p.kind == "quadratic"]
    if len(quad) > 1 or len(quad) < len(r.params):
        raise UnsupportedField("rational and quadratic scalars only")
    if not quad:
        return r.num.get((), Q(0))
    u, v = (r.num.get(m, Q(0)) for m in ((), ((quad[0].name, 1),)))
    b, c = -2 * u, u * u - v * v * quad[0].D
    A = math.lcm(b.denominator, c.denominator)
    B, C = int(b * A), int(c * A)
    N = B * B - 4 * A * C
    return (-B, 2 * A, N) if v > 0 else (B, -2 * A, N)


def fan_gluings(fan: QuantumFan) -> dict:
    """{(I, J): gluing_exponents(fan, I, J)} over the ordered pairs of
    distinct intersecting maximal cones, each in sorted order."""
    cones = sorted(tuple(sorted(c)) for c in fan.maximal_cones())
    return {(I, J): gluing_exponents(fan, I, J)
            for I in cones for J in cones
            if I != J and set(I) & set(J)}


def cocycle_holds(gluings: dict) -> bool:
    """M_IJ M_JK = M_IK for every ordered triple of pairwise intersecting
    cones."""
    cones = list(dict.fromkeys(I for I, _ in gluings))
    for I, J, K in itertools.permutations(cones, 3):
        if (I, J) in gluings and (J, K) in gluings and (I, K) in gluings:
            if gluings[I, J] * gluings[J, K] != gluings[I, K]:
                return False
    return True


def cocycle_check(fan: QuantumFan) -> bool:
    """The cocycle condition on the library's own gluing matrices."""
    return cocycle_holds(fan_gluings(fan))


def validate_fan_all_pairs(fan: QuantumFan, w: Witness) -> ValidationReport:
    """Reference validation: the structural checks, Indeterminate for a ray
    whose values all vanish at the witness, then one relative interior LP
    per pair of cones, unless one is a face of the other and the larger
    one's values have full rank at the witness."""
    report = ValidationReport(True)
    for i in range(1, fan.nrays + 1):
        if all(x.is_zero() for x in fan.ray(i)):
            report.add("zero_generator", {"ray": i})
    for c in fan.cones:
        if c and rank(Matrix.from_columns(fan.cone_generators(c))) != len(c):
            report.add("dependent_cone", {"cone": sorted(c)})
    for c in fan.cones:
        for i in c:
            if (c - {i}) not in fan.cones:
                report.add("missing_face",
                           {"cone": sorted(c), "missing": sorted(c - {i})})
    ray_indices = {i for c in fan.cones for i in c}
    for i in range(1, fan.nrays + 1):
        if i not in ray_indices:
            report.add("missing_face", {"cone": [i], "missing": [i]})
    if not report.valid:
        return report
    coords = {i: [w.value(x) for x in fan.ray(i)]
              for i in range(1, fan.nrays + 1)}
    if any(all(x == 0 for x in v) for v in coords.values()):
        raise Indeterminate("a ray vanishes at the witness only")
    cones = sorted(fan.cones, key=lambda c: (len(c), sorted(c)))
    for a, b in itertools.combinations(cones, 2):
        if not a or not b:
            continue
        if (a < b or b < a) and minor_rank(
                [coords[i] for i in a | b]) == len(a | b):
            continue
        if lp.cones_relint_intersect([coords[i] for i in sorted(a)],
                                     [coords[i] for i in sorted(b)]):
            report.add("overlap", {"cones": [sorted(a), sorted(b)]})
    return report


def is_polytopal_primal(fan: QuantumFan, w: Witness) -> bool:
    """Reference polytopality: is C w >= 1 feasible for the constraints
    l_s(v_j) - w_j of every maximal cone s and ray j outside it, with w
    split into u - v and one slack per constraint?"""
    if not _is_complete(fan):
        return False
    p = fan.nrays
    coords = {i: [w.value(x) for x in fan.ray(i)] for i in range(1, p + 1)}
    rows = []
    for s in (tuple(sorted(c)) for c in fan.maximal_cones()):
        Vs = Matrix.from_columns([coords[i] for i in s])
        for j in range(1, p + 1):
            if j in s:
                continue
            gam = solve_right(Vs, coords[j])
            if gam is None:
                return False
            row = [Q(0)] * p
            for idx, i in enumerate(s):
                row[i - 1] += gam[idx].as_fraction()
            row[j - 1] -= 1
            rows.append(row)
    m = len(rows)
    A = [row + [-x for x in row] + [Q(-1) if kk == k else Q(0)
                                    for kk in range(m)]
         for k, row in enumerate(rows)]
    return not rows or lp.feasible(A, [Q(1)] * m)


def ref_solve_lp(A, b, steps=None):
    """Reference for lp.solve_lp: the field simplex it was before rational
    tableaux became rows of ints.  Fraction or Surd entries, linalg.pivot,
    and Bland's ratio test by division.  Each pivot (row, column) is
    appended to steps when a list is given."""
    m = len(A)
    n = len(A[0]) if m else 0
    A = [[Q(v) if isinstance(v, int) else v for v in row] for row in A]
    b = [Q(v) if isinstance(v, int) else v for v in b]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    T = [A[i] + [Q(1) if j == i else Q(0) for j in range(m)] + [b[i]]
         for i in range(m)]
    T.append([-sum(col) for col in zip(*A)] + [Q(0)] * m + [-sum(b)])
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if T[-1][j] < 0), None)
        if enter is None:
            break
        # phase 1 is bounded below by 0, so some row has a positive entry
        _, _, r = min((T[i][-1] / T[i][enter], basis[i], i)
                      for i in range(m) if T[i][enter] > 0)
        pivot(T, r, enter)
        basis[r] = enter
        if steps is not None:
            steps.append((r, enter))
    if T[-1][-1] != 0:
        return None
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return x


def solve_lp_two_phase(A, b, c):
    """Reference LP: min c.x subject to A x = b, x >= 0, by the two-phase
    simplex on lp._simplex_core, for rational data or values in K.
    Returns (status, objective)."""
    m = len(A)
    n = len(A[0]) if m else len(c)
    def exact(v):
        return Q(v) if isinstance(v, int) else v

    A = [list(map(exact, row)) for row in A]
    b = list(map(exact, b))
    c = list(map(exact, c))
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    T = [A[i] + [Q(1) if j == i else Q(0) for j in range(m)] + [b[i]]
         for i in range(m)]
    T.append([Q(0)] * n + [Q(1)] * m + [Q(0)])
    basis = [n + i for i in range(m)]
    for i in range(m):
        T[-1] = [a - bb for a, bb in zip(T[-1], T[i])]
    lp._simplex_core(T, basis, n + m, pivot)
    if T[-1][-1] != 0:
        return "infeasible", None
    # drive remaining artificials out of the basis when possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j] != 0), None)
            if enter is not None:
                pivot(T, i, enter)
                basis[i] = enter
    T2 = [[T[i][j] for j in range(n)] + [T[i][-1]] for i in range(m)]
    obj2 = list(c) + [Q(0)]
    for i in range(m):
        if basis[i] < n and obj2[basis[i]] != 0:
            f = obj2[basis[i]]
            obj2 = [a - f * v for a, v in zip(obj2, T2[i])]
    T2.append(obj2)
    if lp._simplex_core(T2, basis, n, pivot) == "unbounded":
        return "unbounded", None
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T2[i][-1]
    return "optimal", sum(ci * xi for ci, xi in zip(c, x))


def max_min_slack(A_eq, b_eq, slack_cols):
    """Reference: max t s.t. A_eq x = b_eq, x >= 0, x[j] >= t for j in
    slack_cols, with x[j] = y[j] + t; None when infeasible at t = 0 and
    10**12 when unbounded."""
    n = len(A_eq[0]) if A_eq else 0
    A = [[*row, sum(row[j] for j in slack_cols)] for row in A_eq]
    status, value = solve_lp_two_phase(A, b_eq, [Q(0)] * n + [Q(-1)])
    if status == "infeasible":
        return None
    if status == "unbounded":
        return Q(10 ** 12)
    return -value


def interiors_slack(points1, points2):
    """Reference: the largest t with a common point of both hulls whose
    barycentric coordinates are all >= t (None when the hulls are
    disjoint)."""
    dim = len(points1[0])
    n1, n2 = len(points1), len(points2)
    A = [[p[i] for p in points1] + [-q[i] for q in points2]
         for i in range(dim)]
    A.append([Q(1)] * n1 + [Q(0)] * n2)
    A.append([Q(0)] * n1 + [Q(1)] * n2)
    return max_min_slack(A, [Q(0)] * dim + [Q(1), Q(1)],
                         list(range(n1 + n2)))


def interiors_intersect_by_slack(points1, points2):
    """Reference interior test by the optimal slack t*: yes when t* > 0."""
    if not points1 or not points2:
        return False
    t = interiors_slack(points1, points2)
    return t is not None and t > 0


def check_lvmb_pairwise(datum, w: Witness):
    """Reference check_lvmb, as (valid, reason): symbolic affine-hull
    ranks, then one slack LP per pair of admissible sets on the hulls of
    their witness values, then the replacement property."""
    pts = w.values_of(datum.points)
    if not datum.E:
        return False, "empty_family"
    E = sorted(datum.E, key=sorted)
    for e in E:
        M = Matrix([[*datum.point(i), Scalar.one()] for i in sorted(e)])
        if rank(M) != 2 * datum.m + 1:
            return False, "affine_hull"
    for e1, e2 in itertools.combinations(E, 2):
        if not interiors_intersect_by_slack([pts[i - 1] for i in sorted(e1)],
                                            [pts[i - 1] for i in sorted(e2)]):
            return False, "interiors"
    for e in E:
        for k in range(1, datum.N + 1):
            if not any(e - {kp} | {k} in datum.E for kp in e):
                return False, "replacement"
    return True, None


def twisted_prism_fan(eps, diagonals) -> QuantumFan:
    """Complete fan in R^3 over a triangular prism around the origin whose
    top triangle is sheared by eps; each side quadrilateral is split along
    the diagonal chosen by diagonals[i].  The same diagonal on all three
    sides gives, near eps = 0, a non-regular (non-polytopal) fan."""
    bottom = [(2, 0, -1), (-1, 2, -1), (-1, -2, -1)]
    top = [(x - eps * y, eps * x + y, 1) for x, y, _ in bottom]
    rays = [[Q(c) for c in v] for v in bottom + top]
    cones = [[1, 2, 3], [4, 5, 6]]
    for i in range(3):
        ui, uj, wi, wj = i + 1, (i + 1) % 3 + 1, i + 4, (i + 1) % 3 + 4
        if diagonals[i]:
            cones += [[ui, uj, wj], [ui, wj, wi]]
        else:
            cones += [[ui, uj, wi], [uj, wj, wi]]
    return fan_from_max_cones(QLattice(3, rays), rays, cones)


# -- reference containment: one solve per (cone, point) ----------------------

def cone_coefficients_by_solve(fan: QuantumFan, cone, point, w: Witness):
    """Coefficients of point on the cone's generators when the point lies in
    the cone (unique for simplicial cones), else None.  The zero vector lies
    in every cone with zero coefficients.  The point is outside when a
    coefficient is certified negative, and Indeterminate only when none is
    and one is undecided."""
    point = tuple(Scalar.coerce(x) for x in point)
    if all(x.is_zero() for x in point):
        return tuple(Scalar.zero() for _ in cone)
    if not cone:
        return None
    V = Matrix.from_columns(fan.cone_generators(cone))
    coeffs = solve_right(V, point)
    if coeffs is None:
        return None
    undecided = None
    for c in coeffs:
        try:
            if sign_at(c, w) is Sign.NEGATIVE:
                return None
        except Indeterminate as e:
            undecided = undecided or e
    if undecided:
        raise undecided
    return coeffs


def containing_cones_by_solve(fan: QuantumFan, point, w: Witness):
    """All cones of the fan containing the point, with coefficients."""
    out = {}
    for c in fan.cones:
        coeffs = cone_coefficients_by_solve(fan, c, point, w)
        if coeffs is not None:
            out[c] = coeffs
    return out


def minimal_containing_cone_by_solve(fan: QuantumFan, point, w: Witness):
    """The unique minimal cone containing the point, or None."""
    found = containing_cones_by_solve(fan, point, w)
    if not found:
        return None
    best = min(found, key=len)
    return best, found[best]


def field_chart(fan: QuantumFan, cone):
    """The chart A of the cone as in QuantumFan.chart, by the field step:
    the last d columns of ref_rref of [rays, e_1..e_d | I]; None when the
    rays are dependent."""
    d, k = fan.dim, len(cone)
    cols = [*fan.cone_generators(cone), *Matrix.identity(d).rows]
    red, piv = ref_rref([[*(c[i] for c in cols),
                          *(Fraction(int(j == i)) for j in range(d))]
                         for i in range(d)])
    if piv[:k] != list(range(k)):
        return None
    return Matrix([r[len(cols):] for r in red])


def coefficients_by_chart(A: Matrix, k: int, point, w: Witness):
    """The coefficients of the point on a cone of k rays with chart A, as
    cone_coefficients gives them: x = A point, None when an entry of x past
    k is nonzero or one of the first k is certified negative (sign_at),
    else Indeterminate at the first undecided one, else x[:k]."""
    x = A.apply(point)
    if any(not c.is_zero() for c in x[k:]):
        return None
    undecided = None
    for c in x[:k]:
        try:
            if sign_at(c, w) is Sign.NEGATIVE:
                return None
        except Indeterminate as e:
            undecided = undecided or e
    if undecided:
        raise undecided
    return x[:k]


def ref_certified_walls(fan: QuantumFan, w: Witness):
    """(walls, covered) as _certified_walls decides them, on the raw
    witness values of the rays, each maximal cone's chart the field inverse
    of its values by ref_rref: walls holds (A, j, x), x the coordinates of
    v_j in A's chart, when every ridge sign holds, else None; covered says
    whether the sum of the first cone's rays has a negative coordinate in
    every other cone's chart.  None when a cone has no chart."""
    coords = dict(enumerate(w.values_of(fan.rays), 1))
    d, maxc = fan.dim, fan.maximal_cones()
    charts = {}
    for A in maxc:
        cols = [coords[i] for i in sorted(A)]
        red, piv = ref_rref([[c[i] for c in cols]
                             + [Fraction(int(j == i)) for j in range(d)]
                             for i in range(d)])
        if piv != list(range(d)):
            return None
        charts[A] = [r[d:] for r in red]

    def chart_coords(A, v):
        return dict(zip(sorted(A), (sum(a * y for a, y in zip(r, v))
                                    for r in charts[A])))

    walls = []
    for (A, i), (_, j) in lattice_fan._complete_ridges(fan).values():
        x = chart_coords(A, coords[j])
        walls.append((A, j, x) if x[i] < 0 else None)
    point = [sum(y) for y in zip(*(coords[i] for i in maxc[0]))]
    covered = all(min(chart_coords(B, point).values()) < 0
                  for B in maxc[1:])
    return None if None in walls else walls, covered


# -- row reduction with the field step (reference) --------------------------

def ref_rref(rows):
    """Reduced row echelon form with leftmost pivots by the field
    Gauss-Jordan step linalg.pivot on every row, whatever its entries.
    Returns (rref rows, pivot column list)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_inverse(B: Matrix) -> Matrix | None:
    """The inverse of a square Scalar matrix by ref_rref of [B | I], or None
    when B is singular."""
    n = B.nrows
    eye = Matrix.identity(n).rows
    red, pivots = ref_rref([[*r, *e] for r, e in zip(B.rows, eye)])
    return Matrix([r[n:] for r in red]) if pivots == list(range(n)) else None


# -- integer-lattice routines on plain int rows (reference) ------------------

def int_rank(M) -> int:
    H, _ = hnf(M)
    return sum(1 for row in H if any(x != 0 for x in row))


def leibniz_det(M):
    """Determinant of a small square matrix by the Leibniz expansion: the
    signed sum over all permutations of the products of their entries."""
    n = len(M)
    return sum((-1) ** sum(p[i] > p[j]
                           for i, j in itertools.combinations(range(n), 2))
               * math.prod(M[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def int_kernel(M) -> list:
    """Z-basis of {x : x integral, M x = 0} for an integer matrix M
    (saturated by construction)."""
    A = [list(r) for r in M]
    if not A:
        return []
    H, U = hnf([list(col) for col in zip(*A)])
    return [tuple(U[i]) for i, row in enumerate(H) if not any(row)]


# -- affine-coefficient integer-lattice routines (reference) ------------------
#
# Every entry must be affine-linear in the parameters: each vector is
# flattened over the basis (1, names) x (e_1..e_d), and each routine builds
# and reduces its own integer matrix.

def affine_coefficients(x: Scalar, names) -> list:
    """Coefficients of x in the basis (1, *names); x must be an
    affine-linear combination of 1 and the listed parameters with rational
    coefficients (UnsupportedEntries otherwise)."""
    if not x.den.is_const():
        raise UnsupportedEntries(f"{x}: non-constant denominator")
    d = x.den.const_value()
    idx = {n: i + 1 for i, n in enumerate(names)}
    out = [Q(0)] * (len(names) + 1)
    for mono, c in x.num.flat().items():
        if mono == ():
            out[0] += c / d
        elif len(mono) == 1 and mono[0][1] == 1 and mono[0][0] in idx:
            out[idx[mono[0][0]]] += c / d
        else:
            raise UnsupportedEntries(
                f"{x}: entry not affine-linear in the parameters")
    return out


def _affine_rows(vectors, names):
    return [[c for x in v for c in affine_coefficients(Scalar.coerce(x), names)]
            for v in vectors]


def _own_lcm_rows(rows):
    """Rational rows scaled to integer rows, each by its own lcm."""
    return [[int(x * math.lcm(*(y.denominator for y in r))) for x in r]
            for r in rows]


def _names(vectors):
    return sorted({n for v in vectors for x in v
                   for n in Scalar.coerce(x).params})


def gamma_rank_affine(gamma: QLattice) -> int:
    rows = _affine_rows(gamma.generators, _names(gamma.generators))
    return int_rank(_own_lcm_rows(rows)) if rows else 0


def gamma_contains_affine(gamma: QLattice, x):
    if not gamma.generators:
        return None
    names = _names(list(gamma.generators) + [x])
    A = _affine_rows(gamma.generators, names)
    (b,) = _affine_rows([x], names)
    den = math.lcm(*(v.denominator for row in A + [b] for v in row))
    return int_solve([[int(v * den) for v in col] for col in zip(*A)],
                     [int(v * den) for v in b])


def kernel_rank_affine(cal: Calibration):
    """(a, basis) from the kernel of the per-monomial rational rows."""
    names = _names(cal.images)
    rows = []
    for coord in range(cal.d):
        per_image = [affine_coefficients(cal.images[i][coord], names)
                     for i in range(cal.n)]
        rows += [[c[k] for c in per_image] for k in range(len(names) + 1)]
    a = cal.n - gamma_rank_affine(QLattice(cal.d, cal.images))
    return a, int_kernel(_own_lcm_rows(rows))


def minor_rank(rows) -> int:
    """The rank as the size of the largest nonzero minor, each expanded by
    Leibniz: products of the entries, so no elimination and no quotients
    of polynomials."""
    ncols = len(rows[0]) if rows else 0
    for r in range(min(len(rows), ncols), 0, -1):
        for I in itertools.combinations(range(len(rows)), r):
            for J in itertools.combinations(range(ncols), r):
                if leibniz_det([[rows[i][j] for j in J] for i in I]) != 0:
                    return r
    return 0


def condition_KH_affine(points) -> str:
    pts = [tuple(Scalar.coerce(x) for x in p) for p in points]
    n = len(pts)
    rows = [[p[i] for p in pts] for i in range(len(pts[0]))]
    rows.append([Scalar.one()] * n)
    field_dim = n - minor_rank(rows)
    if field_dim == 0:
        return "K"
    names = _names(pts)
    qrows = []
    for row in rows:
        per_monomial = [affine_coefficients(x, names) for x in row]
        qrows += [[c[k] for c in per_monomial] for k in range(len(names) + 1)]
    lattice = int_kernel(_own_lcm_rows(qrows))
    if len(lattice) == field_dim:
        return "K"
    return "H" if not lattice else "neither"


# -- oracles for identities the library builds in ----------------------------

def shared_rows_are_identity(fan: QuantumFan, cone_from, cone_to) -> bool:
    """For every shared ray, the exponent-matrix row at the ray's position
    in the source chart is the identity row of its position in the target
    chart (cones are sequences in chart order)."""
    M = gluing_exponents(fan, cone_from, cone_to)
    src, dst = list(cone_from), list(cone_to)
    for r in set(src) & set(dst):
        row = M.rows[src.index(r)]
        j = dst.index(r)
        for c, x in enumerate(row):
            expected = Scalar.one() if c == j else Scalar.zero()
            if not (x - expected).is_zero():
                return False
    return True


def gale_bilinear_defect(gale: GaleData, vectors) -> Matrix:
    """sum_i v_i A_i^T as a d x (n-d) matrix; zero iff the bilinear
    identity sum_i <A_i,t><v_i,s> = 0 holds identically."""
    vecs = [tuple(Scalar.coerce(x) for x in v) for v in vectors]
    d = len(vecs[0])
    w = gale.width
    out = [[Scalar.zero()] * w for _ in range(d)]
    for v, A in zip(vecs, gale.vectors):
        for r in range(d):
            for c in range(w):
                out[r][c] = out[r][c] + v[r] * A[c]
    return Matrix(out)


def lemmah_defect(cal: Calibration, gale: GaleData) -> Matrix:
    """A_top + hbar * A_bottom for a standard calibration: the matrix whose
    vanishing is the chart-calibration identity
    0 = <A_i,t> + hbar_i(<A_{d+1},t>,...,<A_n,t>)."""
    d, n = cal.d, cal.n
    hmat = cal.matrix()
    hbar = Matrix([r[d:] for r in hmat.rows])
    A_top = Matrix([list(gale.vectors[i]) for i in range(d)])
    A_bot = Matrix([list(gale.vectors[i]) for i in range(d, n)])
    return A_top + hbar * A_bot


def lvm_face_oracle(points, m: int, J, w: Witness) -> bool:
    """Independent LVM-side test: 0 in the hull of the points outside J."""
    points = [tuple(Scalar.coerce(x) for x in p) for p in points]
    pts = w.values_of(points)
    comp = [pts[i - 1] for i in range(1, len(points) + 1) if i not in J]
    return lp.in_convex_hull(comp)


def polytope_faces_brute(n: int, m: int, E) -> tuple:
    """(faces, vertices, facet count) of the polytope of an admissible
    family E over [n]: every J that misses some e, the faces of size
    n - 2m - 1, and the number of single indices that are faces."""
    faces = [frozenset(J) for k in range(n + 1)
             for J in itertools.combinations(range(1, n + 1), k)
             if any(not set(J) & set(e) for e in E)]
    vertices = [f for f in faces if len(f) == n - 2 * m - 1]
    return (sorted(faces, key=lambda f: (len(f), sorted(f))),
            sorted(vertices, key=sorted), sum(len(f) == 1 for f in faces))


def wps_weights_chart_oracle(a, b) -> tuple:
    """Independent oracle: per chart, the minimal positive integer t with
    t * (chart hbar vector) integral; chart vectors (a,b), (-b/a, 1/a),
    (1/b, -a/b) in chart order."""
    fa = Scalar.coerce(a).as_fraction()
    fb = Scalar.coerce(b).as_fraction()
    charts = [(fa, fb), (-fb / fa, 1 / fa), (1 / fb, -fa / fb)]
    return tuple(math.lcm(u.denominator, v.denominator) for u, v in charts)
