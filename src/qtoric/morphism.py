"""Morphisms of quantum fans and calibrated quantum fans: validity checks,
composition, kernel maps, and a bounded existence search for the pair
(L, H, s) realizing a calibrated morphism."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .calibration import CalibratedFan, induced_fan, kernel_rank
from .errors import DomainMismatch, Indeterminate, SearchBoundExceeded
from .lattice_fan import QLattice, QuantumFan, gamma_contains
from .linalg import (Matrix, in_basis, int_det, int_solve, rank, ratio,
                     solve_right)
from .scalars import Scalar, Witness, sign_at


@dataclass
class CheckResult:
    ok: bool
    reason: str | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok

    @staticmethod
    def valid(**details):
        return CheckResult(True, None, details)

    @staticmethod
    def invalid(reason, **details):
        return CheckResult(False, reason, details)

    def to_json(self):
        out = {"valid": self.ok}
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class CalMorphism:
    L: Matrix
    H: Matrix
    s: dict

    def to_json(self):
        return {"L": [[str(x) for x in r] for r in self.L.rows],
                "H": [[int(x.as_fraction()) for x in r] for r in self.H.rows],
                "s": {str(k): v for k, v in self.s.items()}}


def cone_coefficients(fan: QuantumFan, cone, point, w: Witness):
    """Coefficients of point on the cone's generators, in sorted ray order,
    when the point lies in the cone, else None: its chart coordinates y/E
    (QuantumFan.chart_image, formed once per fan, cone and point) must be
    zero on the completion and none may be certified negative;
    Indeterminate when one is undecided.  A sign is sign(y_i)*sign(E) at
    the witness, and where either vanishes the canonical coefficient
    decides (sign_at) and is named.  The signs are read on every call, so
    an undecided one raises each time, in the same order.  Only returned
    coefficients are made canonical.  Singular for dependent
    generators."""
    image = fan.chart_image(frozenset(cone), point)
    y, E, k = image.y, image.E, len(cone)
    sE = w.sign(E)

    def negative(i):
        return (w.sign(y[i]) * sE or sign_at(ratio(y[i], E), w).value) < 0

    if any(y[k:]) or _first(negative, range(k)) is not None:
        return None
    return image.entries()[:k]


def _first(test, items):
    """The first item whose test is true, read in order, or None when every
    test is false.  When no test is true but one raised Indeterminate, the
    first of those is raised: an undecided item decides only when no item
    is certified."""
    err = None
    for x in items:
        try:
            if test(x):
                return x
        except Indeterminate as e:
            err = err or e
    if err:
        raise err
    return None


def containing_cones(fan: QuantumFan, point, w: Witness):
    """All cones of the fan containing the point, with coefficients: the
    faces of a maximal cone holding the point that contain the support of
    its coordinates there.  The maximal cones are tried in sorted order."""
    inside = []
    for top in fan.maximal_cones():
        coeffs = cone_coefficients(fan, top, point, w)
        if coeffs is not None:
            x = dict(zip(sorted(top), coeffs))
            inside.append((top, {i for i in top if not x[i].is_zero()}, x))
    return {c: tuple(x[i] for i in sorted(c)) for c in fan.cones
            for top, support, x in inside if support <= c <= top}


def minimal_containing_cone(fan: QuantumFan, point, w: Witness):
    """The unique minimal cone containing the point, or None."""
    found = containing_cones(fan, point, w)
    if not found:
        return None
    best = min(found, key=len)
    return best, found[best]


def check_fan_morphism(L: Matrix, src: QuantumFan, dst: QuantumFan,
                       w: Witness) -> CheckResult:
    """Quantum fan morphism conditions: L(Gamma) in Gamma', every cone maps
    into some cone, and each mapped ray generator is an N-linear combination
    of the receiving cone's generators (symbolically integral).  A cone
    fails when every target cone is certified to miss the image of one of
    its rays; an undecided containment decides only when none is certified
    (_first)."""
    if L.nrows != dst.dim or L.ncols != src.dim:
        return CheckResult.invalid("shape", shape=(L.nrows, L.ncols))
    for g in src.gamma.generators:
        if gamma_contains(dst.gamma, L.apply(g)) is None:
            return CheckResult.invalid(
                "lattice", detail=f"L({[str(x) for x in g]}) not in Gamma'")
    images = {i: L.apply(src.ray(i)) for i in range(1, src.nrays + 1)}

    def holds(c, cone):     # no ray of cone maps outside c
        return _first(lambda i: cone_coefficients(dst, c, images[i], w)
                      is None, sorted(cone)) is None

    def fails(cone):        # no target cone holds cone
        return _first(lambda c: holds(c, cone), dst.maximal_cones()) is None

    failed = _first(fails, src.maximal_cones())
    if failed is not None:
        return CheckResult.invalid("cone_containment", cone=sorted(failed))
    for i in range(1, src.nrays + 1):
        found = containing_cones(dst, images[i], w)
        if not found:
            return CheckResult.invalid("ray_containment", ray=i)
        for cone, coeffs in found.items():
            if not all(c.is_integer() for c in coeffs):
                return CheckResult.invalid(
                    "integrality", ray=i, cone=sorted(cone),
                    coefficients=[str(c) for c in coeffs])
    return CheckResult.valid()


def check_fan_iso(L: Matrix, src: QuantumFan, dst: QuantumFan,
                  w: Witness) -> CheckResult:
    """Isomorphism: invertible L with L(Gamma) = Gamma', equal ray counts,
    rays mapped exactly onto a permutation of the target rays carrying the
    cone poset onto the cone poset.  L^-1 Gamma' is read off one in_basis
    of [L | the generators of Gamma']."""
    d = src.dim
    if d != dst.dim or L.nrows != L.ncols or L.nrows != d:
        return CheckResult.invalid("shape")
    picks, back = in_basis([*L.columns(), *dst.gamma.generators])
    if picks != list(range(d)):
        return CheckResult.invalid("singular")
    for g in src.gamma.generators:
        if gamma_contains(dst.gamma, L.apply(g)) is None:
            return CheckResult.invalid("lattice_forward")
    if any(gamma_contains(src.gamma, x) is None for x in back[d:]):
        return CheckResult.invalid("lattice_backward")
    if src.nrays != dst.nrays:
        return CheckResult.invalid("ray_count")
    perm = {}
    for i in range(1, src.nrays + 1):
        img = L.apply(src.ray(i))
        match = None
        for j in range(1, dst.nrays + 1):
            if j in perm.values():
                continue
            if all(x == y for x, y in zip(img, dst.ray(j))):
                match = j
                break
        if match is None:
            return CheckResult.invalid("ray_permutation", ray=i)
        perm[i] = match
    mapped = {frozenset(perm[i] for i in c) for c in src.cones}
    if mapped != set(dst.cones):
        return CheckResult.invalid("poset")
    return CheckResult.valid(permutation=perm)


def check_cal_morphism(m: CalMorphism, src: CalibratedFan, dst: CalibratedFan,
                       w: Witness) -> CheckResult:
    """The five conditions of a calibrated quantum fan morphism."""
    L, H, s = m.L, m.H, m.s
    cal, cal2 = src.cal, dst.cal
    if H.nrows != cal2.n or H.ncols != cal.n:
        return CheckResult.invalid("H_shape")
    if not H.is_integer():
        return CheckResult.invalid("H_not_integral")
    r1 = check_fan_morphism(L, src.fan, dst.fan, w)
    if not r1:
        return CheckResult.invalid("L_not_fan_morphism", inner=r1.reason)
    r2 = check_fan_morphism(H, induced_fan(src), induced_fan(dst), w)
    if not r2:
        return CheckResult.invalid("H_not_fan_morphism", inner=r2.reason)
    lhs = L * cal.matrix()
    rhs = cal2.matrix() * H
    if lhs != rhs:
        return CheckResult.invalid("diagram", detail="L.h != h'.H")
    for i in range(1, cal.n + 1):
        col = H.column(i - 1)
        if i in cal.J:
            j = s.get(i)
            if j is None or j not in cal2.J:
                return CheckResult.invalid("s_map", index=i)
            target = [Scalar.one() if r == j else Scalar.zero()
                      for r in range(1, cal2.n + 1)]
            if any(x != y for x, y in zip(col, target)):
                return CheckResult.invalid("virtual_column", index=i)
        else:
            for r in cal2.J:
                if not col[r - 1].is_zero():
                    return CheckResult.invalid(
                        "virtual_support", index=i, row=r)
    return CheckResult.valid()


def check_cal_iso(m: CalMorphism, src: CalibratedFan, dst: CalibratedFan,
                  w: Witness) -> CheckResult:
    r = check_cal_morphism(m, src, dst, w)
    if not r:
        return r
    if m.L.nrows != m.L.ncols:
        raise ValueError("L is not square")
    if rank(m.L) < m.L.nrows:
        return CheckResult.invalid("L_singular")
    H_int = m.H.to_int_rows()
    n = len(H_int)
    if len(H_int[0]) != n:
        return CheckResult.invalid("H_not_square")
    dH = int_det(H_int)
    if abs(dH) != 1:
        return CheckResult.invalid("H_not_unimodular")
    if sorted(m.s.values()) != sorted(dst.cal.J) or \
            len(set(m.s.values())) != len(m.s):
        return CheckResult.invalid("s_not_bijective")
    return CheckResult.valid()


def is_marked_iso(m: CalMorphism, src: CalibratedFan, dst: CalibratedFan,
                  w: Witness) -> CheckResult:
    r = check_cal_iso(m, src, dst, w)
    if not r:
        return r
    if src.cal.J != dst.cal.J:
        return CheckResult.invalid("J_differs")
    if any(m.s[j] != j for j in src.cal.J):
        return CheckResult.invalid("s_not_identity")
    return CheckResult.valid()


def compose(m1: CalMorphism, m2: CalMorphism) -> CalMorphism:
    """Composite m2 after m1: (L2 L1, H2 H1, s2 o s1)."""
    if m2.L.ncols != m1.L.nrows or m2.H.ncols != m1.H.nrows:
        raise DomainMismatch("codomain of m1 differs from domain of m2")
    s = {}
    for i, j in m1.s.items():
        if j not in m2.s:
            raise DomainMismatch(f"virtual index {j} not in domain of s2")
        s[i] = m2.s[j]
    return CalMorphism(m2.L * m1.L, m2.H * m1.H, s)


def identity_morphism(cf: CalibratedFan) -> CalMorphism:
    return CalMorphism(Matrix.identity(cf.fan.dim),
                       Matrix.identity(cf.cal.n),
                       {j: j for j in cf.cal.J})


def kernel_map(m: CalMorphism, src: CalibratedFan, dst: CalibratedFan) -> list:
    """The induced integer matrix between the calibration kernels, in the
    kernel bases returned by kernel_rank."""
    _, basis_src = kernel_rank(src.cal)
    _, basis_dst = kernel_rank(dst.cal)
    Hrows = m.H.to_int_rows()
    cols = []
    for xi in basis_src:
        img = [sum(Hrows[r][c] * xi[c] for c in range(len(xi)))
               for r in range(len(Hrows))]
        if not basis_dst:
            if any(v != 0 for v in img):
                raise ValueError("H does not map the kernel into the kernel")
            cols.append(())
            continue
        Bt = [list(col) for col in zip(*basis_dst)]
        sol = int_solve(Bt, img)
        if sol is None:
            raise ValueError("H does not map the kernel into the kernel")
        cols.append(sol)
    return [[cols[j][i] for j in range(len(cols))]
            for i in range(len(basis_dst))] if basis_dst else []


# ---------------------------------------------------------------------------
# existence search
# ---------------------------------------------------------------------------

def find_cal_morphism(src: CalibratedFan, dst: CalibratedFan, w: Witness,
                      L: Matrix | None = None) -> CalMorphism | None:
    """Search for a calibrated morphism (L, H, s) from src to dst.

    When L is not supplied it is derived from the virtual-generator
    constraints L h(e_j) = h'(e_{s(j)}); when those leave L underdetermined
    the free entries are set to zero, and if no candidate is a morphism the
    search raises Indeterminate, since another L may be one.  The virtual
    assignment s is enumerated (bounded at 8 virtual generators)."""
    cal, cal2 = src.cal, dst.cal
    if len(cal.J) > 8 or len(cal2.J) > 8:
        raise SearchBoundExceeded("more than 8 virtual generators")
    d, d2 = cal.d, cal2.d
    underdetermined = False
    for t in itertools.product(cal2.J, repeat=len(cal.J)):
        s = dict(zip(reversed(cal.J), t))
        Lcand = L
        if Lcand is None:
            Lcand, determined = _derive_L(cal, cal2, s, d, d2, w)
            underdetermined = underdetermined or not determined
            if Lcand is None:
                continue
        m = _build_H(Lcand, src, dst, s, w)
        if m is not None:
            r = check_cal_morphism(m, src, dst, w)
            if r:
                return m
    if underdetermined:
        raise Indeterminate("L underdetermined")
    return None


def _derive_L(cal, cal2, s, d, d2, w):
    """Solve L h(e_j) = h'(e_{s(j)}) (j virtual) for the entries of L,
    free entries zero.  Returns (L, whether the system fixes every entry
    of L); L is None when the system is inconsistent."""
    rows = []
    rhs = []
    for j in cal.J:
        hv = cal.image(j)
        target = cal2.image(s[j])
        for r in range(d2):
            row = [Scalar.zero()] * (d2 * d)
            for c in range(d):
                row[r * d + c] = hv[c]
            rows.append(row)
            rhs.append(target[r])
    if not rows:
        return Matrix.zero(d2, d), d2 * d == 0
    sol = solve_right(Matrix(rows), rhs)
    if sol is None:
        return None, True
    determined = rank(Matrix(rows), w) == d2 * d
    return Matrix([[sol[r * d + c] for c in range(d)]
                   for r in range(d2)]), determined


def _build_H(L, src: CalibratedFan, dst: CalibratedFan, s, w) -> CalMorphism | None:
    cal, cal2 = src.cal, dst.cal
    n, n2 = cal.n, cal2.n
    nonvirtual2 = [i for i in range(1, n2 + 1) if i not in cal2.J]
    nv_lattice = QLattice(cal2.d, [cal2.image(i) for i in nonvirtual2])
    cols = []
    for i in range(1, n + 1):
        col = [Scalar.zero()] * n2
        if i in cal.J:
            col[s[i] - 1] = Scalar.one()
        elif i in cal.I:
            k = src.ray_of_index(i)
            target = L.apply(src.fan.ray(k))
            mc = minimal_containing_cone(dst.fan, target, w)
            if mc is None:
                return None
            cone, coeffs = mc
            if not all(c.is_integer() for c in coeffs):
                return None
            for ray_idx, c in zip(sorted(cone), coeffs):
                col[dst.index_of_ray(ray_idx) - 1] = c
        else:
            target = L.apply(cal.image(i))
            sol = gamma_contains(nv_lattice, target)
            if sol is None:
                return None
            for pos, idx in enumerate(nonvirtual2):
                col[idx - 1] = Scalar.from_fraction(sol[pos])
        cols.append(col)
    return CalMorphism(L, Matrix.from_columns(cols), dict(s))
