"""Linear and affine Gale transforms, LVM/LVMB data, polytope face
combinatorics, conditions (K)/(H), and the lattice data of the abelian
compactification group.

An LVMB datum stores N = n+1 points of C^m as 2m real scalars each
(x_1 + i x_2, ..., x_{2m-1} + i x_{2m}) together with the admissible
family E of (2m+1)-subsets of {1..N}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import lp
from .calibration import CalibratedFan, Calibration
from .errors import (NoIndispensable, NotBalanced, NotComplete, NotEven,
                     RankDeficient, SearchBoundExceeded, Singular)
from .lattice_fan import QLattice, QuantumFan, _is_complete
from .linalg import Matrix, basis_inverse, kernel_basis, mat_inverse, rank
from .morphism import CalMorphism, CheckResult, is_marked_iso
from .scalars import Scalar, Witness

WEAK_HYPERBOLICITY_CAP = 20


@dataclass
class GaleData:
    """Vectors A_1..A_N in the scalar field, rows of the kernel matrix of
    the defining system; the normalization tag records the pivot rule."""
    vectors: list                  # list of scalar tuples, length n-d each
    normalization: str = "leftmost-pivot-identity-block"

    @property
    def n(self):
        return len(self.vectors)

    @property
    def width(self):
        return len(self.vectors[0]) if self.vectors else 0

    def to_json(self):
        return {"normalization": self.normalization,
                "A": [[str(x) for x in v] for v in self.vectors]}


def gale_linear(cal: Calibration) -> GaleData:
    """Gale vectors A_1..A_n with h(x) = 0 iff x = <A, t>: rows of the
    kernel matrix of the calibration matrix under the deterministic
    leftmost-pivot rule."""
    ker = kernel_basis(cal.matrix())
    if not ker:
        return GaleData([() for _ in range(cal.n)])
    G = Matrix.from_columns(ker)
    return GaleData([tuple(r) for r in G.rows])


def gale_affine(vectors, normalization: str = "pivot") -> GaleData:
    """Affine Gale vectors of a balanced configuration (sum v_i = 0):
    kernel rows of the system (sum x_i v_i = 0, sum x_i = 0).

    normalization="pivot" uses the deterministic leftmost-pivot kernel;
    normalization="tail" post-composes with the basis change fixing the
    last n-d vectors A_{d+2}..A_{n+1} to the canonical basis (requires
    them independent)."""
    vecs = [tuple(Scalar.coerce(x) for x in v) for v in vectors]
    d = len(vecs[0]) if vecs else 0
    if any(sum(col, Scalar.zero()) for col in zip(*vecs)):
        raise NotBalanced("input does not sum to zero")
    rows = [[v[i] for v in vecs] for i in range(d)]
    rows.append([Scalar.one()] * len(vecs))
    ker = kernel_basis(Matrix(rows))
    if not ker:
        return GaleData([() for _ in vecs])
    G = Matrix.from_columns(ker)
    if normalization == "tail":
        width = G.ncols
        tail = Matrix(G.rows[-width:])
        try:
            G = G * mat_inverse(tail)
        except Singular as e:
            raise RankDeficient(
                "tail vectors are dependent; cannot normalize") from e
        return GaleData([tuple(r) for r in G.rows], "tail-canonical")
    return GaleData([tuple(r) for r in G.rows])


# ---------------------------------------------------------------------------
# LVMB data
# ---------------------------------------------------------------------------

class LVMBDatum:
    """Configuration of N points in C^m (2m real scalars each) plus the
    family E of (2m+1)-subsets of {1..N}."""

    def __init__(self, m: int, points, E):
        self.m = m
        self.points = tuple(tuple(Scalar.coerce(x) for x in p)
                            for p in points)
        for p in self.points:
            if len(p) != 2 * m:
                raise ValueError("point with wrong number of coordinates")
        self.E = frozenset(frozenset(int(i) for i in e) for e in E)
        for e in self.E:
            if len(e) != 2 * m + 1:
                raise ValueError("admissible subsets must have 2m+1 elements")
            if any(i < 1 or i > self.N for i in e):
                raise ValueError("admissible subset index out of range")

    @property
    def N(self) -> int:
        return len(self.points)

    def point(self, i: int):
        return self.points[i - 1]

    def indispensable(self) -> list:
        """Indices present in every admissible subset."""
        if not self.E:
            return list(range(1, self.N + 1))
        common = set.intersection(*(set(e) for e in self.E))
        return sorted(common)

    def to_json(self):
        return {"m": self.m,
                "Lambda": [[str(x) for x in p] for p in self.points],
                "E": sorted(sorted(e) for e in self.E)}


def _points_at_witness(points, w: Witness):
    return [[w.value(x) for x in p] for p in points]


def check_lvmb(datum: LVMBDatum, w: Witness) -> CheckResult:
    """The three admissibility conditions: spanning real affine hulls,
    pairwise interior intersection of the hulls, and the replacement
    property."""
    if not datum.E:
        return CheckResult.invalid("empty_family")
    pts = _points_at_witness(datum.points, w)
    for e in sorted(datum.E, key=sorted):
        M = Matrix([[*datum.point(i), Scalar.one()] for i in sorted(e)])
        if rank(M, w) != 2 * datum.m + 1:
            return CheckResult.invalid("affine_hull", E=sorted(e))
    for e1, e2 in itertools.combinations(sorted(datum.E, key=sorted), 2):
        p1 = [pts[i - 1] for i in sorted(e1)]
        p2 = [pts[i - 1] for i in sorted(e2)]
        if not lp.interiors_intersect(p1, p2):
            return CheckResult.invalid("interiors",
                                       E1=sorted(e1), E2=sorted(e2))
    for e in datum.E:
        for k in range(1, datum.N + 1):
            if not any(frozenset(e - {kp}) | {k} in datum.E for kp in e):
                return CheckResult.invalid("replacement",
                                           E=sorted(e), k=k)
    return CheckResult.valid()


def check_lvm(points, m: int, w: Witness) -> dict:
    """Siegel condition, weak hyperbolicity (subset enumeration capped at
    20 points), and the admissible family when both hold."""
    points = [tuple(Scalar.coerce(x) for x in p) for p in points]
    n = len(points)
    if n > WEAK_HYPERBOLICITY_CAP:
        raise SearchBoundExceeded(
            f"weak hyperbolicity enumeration capped at {WEAK_HYPERBOLICITY_CAP}")
    pts = _points_at_witness(points, w)
    siegel = lp.in_convex_hull(pts)
    weak = True
    for size in range(1, 2 * m + 1):
        for sub in itertools.combinations(range(n), size):
            if lp.in_convex_hull([pts[i] for i in sub]):
                weak = False
                break
        if not weak:
            break
    E = []
    if siegel and weak:
        for sub in itertools.combinations(range(1, n + 1), 2 * m + 1):
            if lp.in_convex_hull([pts[i - 1] for i in sub]):
                E.append(frozenset(sub))
    return {"siegel": siegel, "weak_hyperbolic": weak, "E": frozenset(E)}


# ---------------------------------------------------------------------------
# construction from even calibrated fans and back
# ---------------------------------------------------------------------------

def is_even(cf: CalibratedFan) -> tuple:
    """(even?, reason) for the construction preconditions."""
    cal, fan = cf.cal, cf.fan
    if not _is_complete(fan):
        return False, "not complete"
    if not cal.is_maximal():
        return False, "not maximal length"
    if (cal.n - cal.d) % 2 != 0:
        return False, "n - d odd"
    return True, None


def build_lvmb(cf: CalibratedFan) -> LVMBDatum:
    """Append the balancing vector, take the affine Gale transform, pack
    into complex points, and attach E = complements of the maximal cones
    (in calibration indices) inside {1..n+1}."""
    even, reason = is_even(cf)
    if not even:
        if reason == "n - d odd":
            raise NotEven(reason)
        raise NotComplete(reason)
    cal, fan = cf.cal, cf.fan
    n, d = cal.n, cal.d
    vbar = list(cal.images)
    vbar.append(tuple(-sum(col, Scalar.zero()) for col in zip(*vbar)))
    gale = gale_affine(vbar)
    m = (n - d) // 2
    E = []
    for c in fan.maximal_cones():
        amb = {cf.index_of_ray(k) for k in c}
        E.append(frozenset(range(1, n + 2)) - amb)
    return LVMBDatum(m, gale.vectors, E)


def lvmb_to_fan(datum: LVMBDatum) -> CalibratedFan:
    """Inverse Gale transform: recover (Delta, h, J) from a balanced datum
    whose last point is indispensable.

    The inverse Gale basis is normalized so that the lexicographically
    first independent ray images become the canonical basis (the standard
    calibrated-fan normalization)."""
    N = datum.N
    n = N - 1
    if any(sum(col, Scalar.zero()) for col in zip(*datum.points)):
        raise NotBalanced("configuration does not sum to zero")
    indis = datum.indispensable()
    if N not in indis:
        raise NoIndispensable("the last point must be indispensable")
    # v-bar = Gale transform of A: kernel rows of (sum x_i A_i = 0, sum x_i = 0)
    gale = gale_affine(datum.points)
    d = n - 2 * datum.m
    if gale.width != d:
        raise NotBalanced(
            f"kernel dimension {gale.width} differs from n - 2m = {d}")
    vbar = [tuple(v) for v in gale.vectors]
    J = [i for i in indis if i != N]
    I = [i for i in range(1, n + 1) if i not in J]
    # standardize: first independent ray rows -> canonical basis
    _, T = basis_inverse([vbar[i - 1] for i in I])
    if T is not None:
        T = Matrix(T)
        vbar = [T.apply(v) for v in vbar]
    v = [tuple(x) for x in vbar[:n]]
    gamma = QLattice(d, v)
    max_cones = []
    for e in datum.E:
        amb = set(range(1, N + 1)) - set(e)
        if N in amb:
            raise NoIndispensable("an admissible subset omits the last point")
        max_cones.append(sorted(amb))
    # fan cones are indexed by ray positions: position of ambient index i
    ray_pos = {idx: k + 1 for k, idx in enumerate(I)}
    cones = [[ray_pos[i] for i in c] for c in max_cones]
    rays = [v[i - 1] for i in I]
    fan = QuantumFan(gamma, rays, cones).with_closure()
    cal = Calibration(gamma, v, J, I)
    return CalibratedFan(fan, cal)


def roundtrip_marked_iso(original: CalibratedFan, recovered: CalibratedFan,
                         w: Witness) -> CheckResult:
    """The linear map carrying the original onto the recovered calibrated
    fan index-for-index, verified as a marked isomorphism."""
    cal, cal2 = original.cal, recovered.cal
    if cal.n != cal2.n or cal.d != cal2.d:
        return CheckResult.invalid("shape")
    # find d independent images to pin L down
    picks, inv = basis_inverse(cal.images)
    if inv is None:
        return CheckResult.invalid("degenerate")
    C = Matrix.from_columns([cal2.image(j + 1) for j in picks])
    L = C * Matrix(inv)
    m = CalMorphism(L, Matrix.identity(cal.n), {j: j for j in cal.J})
    return is_marked_iso(m, original, recovered, w)


# ---------------------------------------------------------------------------
# polytope combinatorics
# ---------------------------------------------------------------------------

@dataclass
class PolytopeFaces:
    n: int
    m: int
    faces: list = field(default_factory=list)     # index subsets J
    vertices: list = field(default_factory=list)  # maximal J
    facet_count: int = 0

    def to_json(self):
        return {"faces": [sorted(f) for f in self.faces],
                "vertices": [sorted(v) for v in self.vertices],
                "facet_count": self.facet_count}


def polytope_faces(datum_or_points, w: Witness, m: int | None = None) -> PolytopeFaces:
    """Face list of the associated polytope, numbered by zero-coordinate
    index sets: J is a face of codimension |J| iff some admissible subset
    avoids J (equivalently, for LVM data, 0 lies in the hull of the
    complementary points)."""
    if isinstance(datum_or_points, LVMBDatum):
        datum = datum_or_points
        E = datum.E
        n = datum.N
        m = datum.m
    else:
        if m is None:
            raise ValueError("m required for a bare configuration")
        res = check_lvm(datum_or_points, m, w)
        if not (res["siegel"] and res["weak_hyperbolic"]):
            raise ValueError("configuration is not an LVM datum")
        E = res["E"]
        n = len(datum_or_points)
    # J is a face iff it misses some e: the faces are the subsets of the
    # complements of the e, and those, of size n - 2m - 1, are the vertices
    everything = frozenset(range(1, n + 1))
    vertices = {everything - e for e in E}
    faces = {frozenset(J) for v in vertices for k in range(len(v) + 1)
             for J in itertools.combinations(v, k)}
    facet_count = n - len(everything.intersection(*E))
    return PolytopeFaces(n, m, sorted(faces, key=lambda f: (len(f), sorted(f))),
                         sorted(vertices, key=sorted), facet_count)


# ---------------------------------------------------------------------------
# conditions (K) and (H)
# ---------------------------------------------------------------------------

def condition_KH(points, w: Witness) -> str:
    """'K' when the solution space of (sum x_i Lambda_i = 0, sum x_i = 0)
    is spanned by its integer points, 'H' when it contains no nonzero
    integer point, 'neither' otherwise.

    Entries may be any scalars of the supported field; the integer points
    are the integer relations among the vectors (Lambda_i, 1), read off
    the HNF of the q-lattice they generate.  The field rank is taken at
    the witness first (linalg.rank)."""
    pts = [tuple(Scalar.coerce(x) for x in p) for p in points]
    n = len(pts)
    width = len(pts[0]) if pts else 0
    rows = [[p[i] for p in pts] for i in range(width)]
    rows.append([Scalar.one()] * n)
    field_dim = n - rank(Matrix(rows), w)
    if field_dim == 0:
        return "K"
    int_rank = len(QLattice(width + 1,
                            [p + (Scalar.one(),) for p in pts]).relations())
    if int_rank == field_dim:
        return "K"
    return "H" if int_rank == 0 else "neither"


# ---------------------------------------------------------------------------
# lattice data of the compactification group
# ---------------------------------------------------------------------------

def _complex_of_pairs(p, m):
    """Split a 2m-real-scalar point into (re, im) vectors of length m."""
    re = [p[2 * k] for k in range(m)]
    im = [p[2 * k + 1] for k in range(m)]
    return re, im


class ComplexMatrix:
    """m x k complex matrix stored as a pair of scalar matrices."""

    def __init__(self, re: Matrix, im: Matrix):
        self.re = re
        self.im = im

    def __mul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        return ComplexMatrix(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re)

    def inverse(self) -> "ComplexMatrix":
        # invert via the real 2n x 2n embedding [[re, -im], [im, re]]
        n = self.re.nrows
        big = []
        for i in range(n):
            big.append(list(self.re.rows[i]) +
                       [-x for x in self.im.rows[i]])
        for i in range(n):
            big.append(list(self.im.rows[i]) + list(self.re.rows[i]))
        inv = mat_inverse(Matrix(big))
        re = Matrix([list(inv.rows[i][:n]) for i in range(n)])
        im = Matrix([list(inv.rows[i + n][:n]) for i in range(n)])
        return ComplexMatrix(re, im)

    def to_json(self):
        return {"re": [[str(x) for x in r] for r in self.re.rows],
                "im": [[str(x) for x in r] for r in self.im.rows]}


def g_lattice(datum_points, m: int):
    """(A, B, B A^{-1}) per the compactification-group lattice formulas:
    A = transpose(L_2 - L_1, ..., L_{m+1} - L_1),
    B = transpose(L_{m+2} - L_1, ..., L_n - L_1); requires the first m+1
    points affinely independent (else RankDeficient)."""
    pts = [tuple(Scalar.coerce(x) for x in p) for p in datum_points]
    n = len(pts)
    if n < m + 2:
        raise ValueError("need at least m+2 points")
    lead = [list(p) + [Scalar.one()] for p in pts[: m + 1]]
    if rank(Matrix(lead)) != m + 1:
        raise RankDeficient(
            "first m+1 points are affinely dependent; permute the input")
    first_re, first_im = _complex_of_pairs(pts[0], m)

    def diff_cols(rng):
        re_cols, im_cols = [], []
        for i in rng:
            re, im = _complex_of_pairs(pts[i], m)
            re_cols.append([x - y for x, y in zip(re, first_re)])
            im_cols.append([x - y for x, y in zip(im, first_im)])
        return re_cols, im_cols

    re_cols, im_cols = diff_cols(range(1, m + 1))
    # transpose(L_2 - L_1, ...): rows are the differences
    A = ComplexMatrix(Matrix(re_cols), Matrix(im_cols))
    re_b, im_b = diff_cols(range(m + 1, n))
    B = ComplexMatrix(Matrix(re_b) if re_b else Matrix([]),
                      Matrix(im_b) if im_b else Matrix([]))
    Ainv = A.inverse()
    if re_b:
        BAinv = B * Ainv
    else:
        BAinv = ComplexMatrix(Matrix([]), Matrix([]))
    return A, B, BAinv
