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
from fractions import Fraction

from . import lp
from .calibration import CalibratedFan, Calibration
from .errors import (InputError, NoIndispensable, NotBalanced, NotComplete,
                     NotEven, RankDeficient, SearchBoundExceeded, Singular)
from .lattice_fan import (QLattice, QuantumFan, _certified_walls,
                          _is_complete, _meet_in_common_face, _ridge_map,
                          _ridges, _value_chart)
from .linalg import Matrix, gale_rows, in_basis, primitive, rank
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
    leftmost-pivot rule (linalg.gale_rows)."""
    return GaleData([tuple(r) for r in gale_rows(cal.matrix().rows)]
                    or [()] * cal.n)


def gale_affine(vectors, normalization: str = "pivot") -> GaleData:
    """Affine Gale vectors of a balanced configuration (sum v_i = 0):
    kernel rows of the system (sum x_i v_i = 0, sum x_i = 0).

    normalization="pivot" uses the deterministic leftmost-pivot kernel;
    normalization="tail" post-composes with the basis change fixing the
    last n-d vectors A_{d+2}..A_{n+1} to the canonical basis (requires
    them independent): every vector's coordinates in them, from one
    in_basis with the tail first."""
    vecs = [tuple(Scalar.coerce(x) for x in v) for v in vectors]
    if any(sum(col, Scalar.zero()) for col in zip(*vecs)):
        raise NotBalanced("input does not sum to zero")
    G = [tuple(r) for r in
         gale_rows([*zip(*vecs), [Scalar.one()] * len(vecs)])]
    width = len(G[0]) if G else 0
    if normalization != "tail" or not width:
        return GaleData(G)
    picks, coords = in_basis(G[-width:] + G[:-width])
    if picks != list(range(width)):
        raise RankDeficient("tail vectors are dependent; cannot normalize")
    return GaleData(coords[width:] + coords[:width], "tail-canonical")


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
        self.E = frozenset(frozenset(e) for e in E)
        for e in self.E:
            if len(e) != 2 * m + 1:
                raise ValueError("admissible subsets must have 2m+1 elements")
            if not e <= set(range(1, self.N + 1)):
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


def check_lvmb(datum: LVMBDatum, w: Witness) -> CheckResult:
    """The three admissibility conditions: spanning real affine hulls,
    pairwise interior intersection of the hulls, and the replacement
    property.

    Hulls of e_1, e_2 share interior points iff an affine dependence of the
    witness values is > 0 on e_1 - e_2, < 0 on e_2 - e_1 and 0 off both:
    phi(v_i) for a linear phi on the Gale dual v (gale_rows).  By Motzkin's
    transposition theorem that is _meet_in_common_face for the cones over
    the complements (Bosio, Ann. Inst. Fourier 51, 2001), which holds for
    all pairs with no LP when _certified_walls certifies those cones, on
    primitive int multiples of rational v_i (QuantumFan.witness_values).
    Otherwise each pair is tried on the cones' value charts before its LP.

    Replacement fails exactly when a ridge A - {k} of those cones lies in A
    only, A = [N] - e: e - {k'} + {k} for k' in e is A - {k} + {k'}."""
    if not datum.E:
        return CheckResult.invalid("empty_family")
    pts = w.values_of(datum.points)
    E = sorted(datum.E, key=sorted)
    for e in E:
        M = Matrix([[*datum.point(i), Scalar.one()] for i in sorted(e)])
        if rank(M, w) != 2 * datum.m + 1:
            return CheckResult.invalid("affine_hull", E=sorted(e))
    dual = {i: primitive(v) for i, v in enumerate(
        gale_rows([*zip(*pts), [Fraction(1)] * len(pts)]), 1)}
    charts = {A: _value_chart([dual[i] for i in sorted(A)], len(A))
              for A in (frozenset(dual) - e for e in E)}
    ridges = _ridge_map(charts)
    walls = _certified_walls(dual, charts, _ridges(list(charts), ridges))
    if walls is None and not all(
            _meet_in_common_face(dual, A, B, charts)
            for A, B in itertools.combinations(charts, 2)):
        return CheckResult.invalid("interiors")
    if any(len(cones) == 1 for cones in ridges.values()):
        return CheckResult.invalid("replacement")
    return CheckResult.valid()


def check_lvm(points, m: int, w: Witness) -> dict:
    """Siegel condition, weak hyperbolicity (subset enumeration capped at
    20 points), and the admissible family when both hold."""
    points = [tuple(Scalar.coerce(x) for x in p) for p in points]
    n = len(points)
    if n > WEAK_HYPERBOLICITY_CAP:
        raise SearchBoundExceeded(
            f"weak hyperbolicity enumeration capped at {WEAK_HYPERBOLICITY_CAP}")
    pts = w.values_of(points)
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
    calibrated-fan normalization): one in_basis of the Gale vectors in the
    order I, J, N.  When the ray images do not span, the vectors stay."""
    if not datum.E:
        raise InputError("empty_family: the admissible family E is empty")
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
    order = I + J + [N]
    picks, coords = in_basis([vbar[i - 1] for i in order])
    if all(j < len(I) for j in picks):
        new = dict(zip(order, coords))
        vbar = [new[i] for i in range(1, N + 1)]
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
    # find d independent images to pin L down, and B^-1 from [images | I]
    picks, coords = in_basis([*cal.images, *Matrix.identity(cal.d).rows])
    if any(j >= cal.n for j in picks):
        return CheckResult.invalid("degenerate")
    C = Matrix.from_columns([cal2.image(j + 1) for j in picks])
    L = C * Matrix.from_columns(coords[cal.n:])
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
    B = ComplexMatrix(Matrix(re_b), Matrix(im_b))
    # row r of B A^-1 is the c in C^m with b_r = sum c_k a_k: with a_k = x + iy
    # as the real vectors (x, y) and i a_k = (-y, x), one in_basis gives
    # (Re c, Im c)
    picks, coords = in_basis(
        [*(x + y for x, y in zip(re_cols, im_cols)),
         *([-v for v in y] + x for x, y in zip(re_cols, im_cols)),
         *(x + y for x, y in zip(re_b, im_b))])
    if picks != list(range(2 * m)):
        raise Singular("matrix is symbolically singular")
    return A, B, ComplexMatrix(Matrix([c[:m] for c in coords[2 * m:]]),
                               Matrix([c[m:] for c in coords[2 * m:]]))
