"""q-lattices and quantum fans: validity, properties, combinatorial types,
standardization and D-realizability.

A q-lattice is a finitely generated additive subgroup of R^d spanning it
over the reals; it is described by a generator list of scalar vectors.
Fans are stored simplicially: a set of ray generators plus a family of
index subsets (1-based, matching the usual cone notation <i1...ik>).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from . import lp
from .errors import Indeterminate, Singular
from .linalg import (Matrix, cleared, hnf_solve, in_basis, inverse_rows,
                     monomial_coordinates, primitive, rank, ratio,
                     stacked_hnf)
from .scalars import Scalar, Witness


def _vec(v):
    return tuple(Scalar.coerce(x) for x in v)


class QLattice:
    """Additive subgroup of R^d given by a generator list.

    Its integer questions (Z-rank, membership, the relations among the
    generators) are all read off one row Hermite normal form, computed on
    first use: each generator is flattened by monomial_coordinates and
    cleared by one integer.  Any scalar may enter a generator.  The answers
    are exact under the promise that the transcendental parameters are
    algebraically independent and the declared roots multiplicatively
    independent (checked at load), so distinct reduced monomials are
    linearly independent over Q."""

    def __init__(self, dim: int, generators):
        self.dim = dim
        self.generators = tuple(_vec(g) for g in generators)
        for g in self.generators:
            if len(g) != dim:
                raise ValueError("generator of wrong dimension")
        self._basis = None

    def __eq__(self, other):
        return (isinstance(other, QLattice) and self.dim == other.dim
                and self.generators == other.generators)

    def __repr__(self):
        return f"QLattice(dim={self.dim}, generators={self.generators})"

    @staticmethod
    def standard(dim: int) -> "QLattice":
        eye = Matrix.identity(dim)
        return QLattice(dim, [eye.rows[i] for i in range(dim)])

    def basis(self) -> tuple:
        """(coords, L, H, U): the generators' monomial coordinates and
        their stacked_hnf."""
        if self._basis is None:
            coords = monomial_coordinates(self.generators)
            self._basis = (coords,
                           *stacked_hnf(coords, len(self.generators)))
        return self._basis

    def relations(self) -> list:
        """Z-basis of the integer relations among the generators, saturated:
        the rows of U over the zero rows of H."""
        _, _, H, U = self.basis()
        return [tuple(u) for h, u in zip(H, U) if not any(h)]


def gamma_rank(gamma: QLattice) -> int:
    """Minimal number of Z-generators: the nonzero rows of the HNF."""
    return sum(1 for h in gamma.basis()[2] if any(h))


def gamma_contains(gamma: QLattice, x) -> tuple | None:
    """Integer coefficients expressing x in the generators, or None."""
    if not gamma.generators:
        return None
    coords, L, H, U = gamma.basis()
    target = []
    for (D, monos, _, _), e in zip(coords, _vec(x)):
        terms = cleared(e, D)
        if terms is None or not terms.keys() <= set(monos):
            return None
        target.extend(terms.get(m, 0) * L for m in monos)
    if any(v.denominator != 1 for v in target):
        return None
    return hnf_solve(H, U, target)


def _normalize_cones(cones) -> frozenset:
    return frozenset([frozenset(), *map(frozenset, cones)])


def _maximal(cones) -> tuple:
    """The cones not strictly inside another, in the family's order."""
    return tuple(c for c in cones if not any(c < d for d in cones))


def _ordered(cone) -> list:
    """Cones given as sequences keep their written order (the paper's
    A_<3,1> differs from A_<1,3>); sets are sorted."""
    if isinstance(cone, (set, frozenset)):
        return sorted(cone)
    return list(cone)


class QuantumFan:
    """Ray generators v_1..v_p plus a family of index subsets of {1..p}."""

    def __init__(self, gamma: QLattice, rays, cones):
        self.gamma = gamma
        self.rays = tuple(_vec(v) for v in rays)
        for v in self.rays:
            if len(v) != gamma.dim:
                raise ValueError("ray of wrong dimension")
        self.cones = _normalize_cones(cones)
        if not set().union(*self.cones) <= set(range(1, len(self.rays) + 1)):
            raise ValueError("cone index out of range")
        if any(len(set(c)) < len(c) for c in cones):
            raise ValueError("cone lists a ray twice")
        self._charts = {}
        self._values = {}
        self._witness_charts = {}
        self._maximal = None

    @property
    def dim(self) -> int:
        return self.gamma.dim

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def ray(self, i: int):
        return self.rays[i - 1]

    def cone_generators(self, cone):
        return [self.ray(i) for i in sorted(cone)]

    def chart_rows(self, cone) -> tuple:
        """(N, D, completion) for the cone I in chart order (see _ordered):
        A_I = N/D (linalg.inverse_rows) is the inverse of the matrix whose
        columns are the cone's rays in order, then the canonical vectors
        e_j for j in the completion, the leftmost pivots of (rays, e_1, ...,
        e_d); so A_I v holds the coordinates of v in the chart.  Computed
        once per fan and cone order; Singular when the rays are dependent."""
        key = tuple(_ordered(cone))
        if key not in self._charts:
            k = len(key)
            piv, N, D = inverse_rows([self.ray(i) for i in key]
                                     + list(Matrix.identity(self.dim).rows))
            if piv[:k] != list(range(k)):
                raise Singular("cone generators do not extend to a basis")
            self._charts[key] = N, D, tuple(j - k + 1 for j in piv[k:])
        return self._charts[key]

    def chart(self, cone) -> tuple:
        """(A_I, completion), A_I formed from chart_rows' N/D."""
        N, D, completion = self.chart_rows(cone)
        return Matrix([[ratio(x, D) for x in r] for r in N]), completion

    def witness_values(self, w: Witness) -> list:
        """Each ray's values at the witness, rational ones as their primitive
        int multiple, or the Indeterminate they raised; once per fan and
        witness.  Witness decisions (independence, ridge sides, a covered
        point, the overlap, common-face and Gordan LPs) read only the rays'
        cones and signs of chart coordinates, which a ray times s > 0 keeps
        (a support function's value there scales by s too)."""
        if w not in self._values:
            self._values[w] = out = []
            for v in self.rays:
                try:
                    out.append(primitive([w.value(x) for x in v]))
                except Indeterminate as e:
                    out.append(e)
        return self._values[w]

    def value_chart(self, cone, w: Witness) -> tuple | None:
        """(N, D): N/D, D > 0, is the inverse of the cone's witness_values in
        sorted ray order, completed by canonical vectors as in chart (ints
        on rational values); None when those values are dependent, so the
        witness rank of the rays falls short, or when one is Indeterminate.
        One elimination of [values | I], once per fan, cone and witness."""
        key = (w, frozenset(cone))
        if key not in self._witness_charts:
            cols = [self.witness_values(w)[i - 1] for i in sorted(cone)]
            self._witness_charts[key] = None if any(
                isinstance(v, Indeterminate) for v in cols) else _value_chart(
                cols + [[int(i == j) for i in range(self.dim)]
                        for j in range(self.dim)], len(cols))
        return self._witness_charts[key]

    def maximal_cones(self) -> tuple:
        """The maximal cones in sorted order, computed once per fan."""
        if self._maximal is None:
            self._maximal = tuple(sorted(_maximal(self.cones), key=sorted))
        return self._maximal

    def with_closure(self) -> "QuantumFan":
        closed = set()
        for c in self.cones:
            members = sorted(c)
            for r in range(len(members) + 1):
                for sub in itertools.combinations(members, r):
                    closed.add(frozenset(sub))
        return QuantumFan(self.gamma, self.rays, closed)

    def __repr__(self):
        cs = sorted(tuple(sorted(c)) for c in self.cones)
        return f"QuantumFan(d={self.dim}, p={self.nrays}, cones={cs})"


def _value_chart(cols, k: int) -> tuple | None:
    """(N, D) of inverse_rows(cols) when its first k columns are picked and
    the picks span, else None."""
    picks, N, D = inverse_rows(cols)
    return (N, D) if N is not None and picks[:k] == list(range(k)) else None


def _witness_coords(fan: QuantumFan, w: Witness) -> dict:
    """{i: v_i}, the fan's witness_values; raises the first Indeterminate."""
    for v in fan.witness_values(w):
        if isinstance(v, Indeterminate):
            raise v
    return dict(enumerate(fan.witness_values(w), 1))


def fan_from_max_cones(gamma: QLattice, rays, max_cones) -> QuantumFan:
    """Convenience constructor closing the cone family under faces."""
    return QuantumFan(gamma, rays, max_cones).with_closure()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    valid: bool
    violations: list = field(default_factory=list)

    def add(self, kind, detail):
        self.valid = False
        self.violations.append({"kind": kind, "detail": detail})

    def to_json(self):
        return {"valid": self.valid, "violations": self.violations}


def _meet_in_common_face(coords, A, B) -> bool:
    """Is cone(A) & cone(B) = cone(F), F = A & B, at the witness?  True iff
    sum_{A-F} l_i u_i - sum_{B-F} m_j w_j + sum_F n_f v_f = 0 has no
    solution with l, m >= 0, sum l + sum m = 1 and n free: a common point
    with weight off F would, normalised, be one."""
    F = A & B
    cols = ([coords[i] for i in sorted(A - F)]
            + [[-x for x in coords[j]] for j in sorted(B - F)])
    off = len(cols)
    for f in sorted(F):
        cols += [coords[f], [-x for x in coords[f]]]
    A_eq = [list(row) for row in zip(*cols)]
    A_eq.append([1] * off + [0] * (len(cols) - off))
    return not lp.feasible(A_eq, [0] * (len(A_eq) - 1) + [1])


def _ridge_map(cones) -> dict:
    """{A - {i}: [(A, i), ...]} over the cones A (frozensets) and i in A."""
    ridges = {}
    for A in cones:
        for i in A:
            ridges.setdefault(A - {i}, []).append((A, i))
    return ridges


def _ridges(maxc, ridges) -> dict | None:
    """ridges, the _ridge_map of the cones maxc (frozensets), when they are
    nonempty and of one size, every ridge lies in exactly two of them and
    the ridge graph is connected, else None: the pseudomanifold test."""
    if not maxc or not maxc[0] or any(len(c) != len(maxc[0]) for c in maxc):
        return None
    if any(len(pair) != 2 for pair in ridges.values()):
        return None
    seen, stack = {maxc[0]}, [maxc[0]]
    while stack:
        A = stack.pop()
        new = {B for i in A for B, _ in ridges[A - {i}]} - seen
        seen |= new
        stack.extend(new)
    return ridges if len(seen) == len(maxc) else None


def _certified_walls(coords, charts, ridges) -> list | None:
    """The walls (A, j, x, D) of the cones certified to form a complete fan,
    else None: the test fails, or a cone has no chart.  coords maps each ray
    to its values; charts maps each maximal cone, in order, to its
    value_chart (N, D) on them, or None; ridges is their ridge pairing
    (_ridges), or None when they have none.

    A pseudomanifold of full-dimensional simplicial cones is one when the
    two cones at every ridge lie on opposite sides of it and one generic
    point lies in exactly one cone (De Loera-Rambau-Santos,
    Triangulations, 2010, section 4.5): crossing a ridge then keeps the
    number of cones over a generic point, so that number is 1 everywhere.
    At the ridge A - {i} = B - {j}, x = N v_j holds D times v_j in A's
    value chart, keyed by A's rays, and x[i] < 0.  The point, the sum of
    the first cone's rays, has a negative coordinate in every other cone's
    value chart.  Every sign is exact on the values coords, and neither
    D > 0 nor positive multiples of rays change it (witness_values)."""
    maxc = list(charts)
    if (ridges is None or len(maxc[0]) != len(coords[next(iter(maxc[0]))])
            or None in charts.values()):
        return None
    walls = []
    for (A, i), (_, j) in ridges.values():
        N, D = charts[A]
        x = dict(zip(sorted(A), (sum(a * y for a, y in zip(r, coords[j]))
                                 for r in N)))
        if not x[i] < 0:
            return None
        walls.append((A, j, x, D))
    point = [sum(y) for y in zip(*(coords[i] for i in maxc[0]))]
    covered = all(any(sum(a * y for a, y in zip(r, point)) < 0
                      for r in charts[B][0]) for B in maxc[1:])
    return walls if covered else None


def validate_fan(fan: QuantumFan, w: Witness) -> ValidationReport:
    """Report zero generators, dependent cone generators, missing faces and
    pairs of cones whose relative interiors meet at the witness.

    A maximal cone with a value chart (QuantumFan.value_chart) has
    generators independent at the witness, hence independent; any other
    takes the symbolic rank.  Faces of a cone with independent generators
    are independent, so of the other cones only those that lie in dependent
    maximal cones alone are ranked, witness first.  After these structural
    checks, a ray that vanishes at the witness only is Indeterminate.

    A complete simplicial fan (_complete_ridges) whose maximal cones all
    have value charts is then certified with no LP by ridge signs and one
    covered point (_certified_walls).  Otherwise each maximal cone A
    with a value chart certifies the pairs of its own faces, whose relative
    interiors have distinct supports.  Each pair A, B of them takes one
    exact LP for the separation lemma (Cox-Little-Schenck, Toric
    Varieties, Lemma 1.2.13): when cone(A) & cone(B) = cone(A & B), a point
    of it has one support in A and the same one in B, so no face of A meets
    a different face of B in their relative interiors.  A maximal cone
    dependent at the witness certifies nothing.  Only pairs of cones under
    no certified pair get their own relative interior LP, so every overlap,
    duplicated ray directions included, is still reported pair by pair."""
    report = ValidationReport(True)
    for i in range(1, fan.nrays + 1):
        if all(x.is_zero() for x in fan.ray(i)):
            report.add("zero_generator", {"ray": i})

    def dependent(c, at=None):
        return rank(Matrix.from_columns(fan.cone_generators(c)), at) != len(c)

    maxc = fan.maximal_cones()
    charts = {A: fan.value_chart(A, w) for A in maxc}
    independent = [A for A in maxc if charts[A] is not None]
    above = {c: [A for A in maxc if c <= A] for c in fan.cones}
    bad = {A for A in maxc if A not in independent and dependent(A)}
    for c in fan.cones:
        if c and all(A in bad for A in above[c]) and (
                c in bad or dependent(c, w)):
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
    coords = _witness_coords(fan, w)
    for i, v in coords.items():
        if not any(v):
            raise Indeterminate(f"ray {i} vanishes at the witness but is "
                                "not symbolically zero")
    if _certified_walls(coords, charts, _complete_ridges(fan)) is not None:
        return report
    certified = {(A, A) for A in independent}
    for A, B in itertools.combinations(independent, 2):
        if _meet_in_common_face(coords, A, B):
            certified |= {(A, B), (B, A)}
    cones = sorted(fan.cones, key=lambda c: (len(c), sorted(c)))
    for a, b in itertools.combinations(cones, 2):
        if not a or not b:
            continue
        if any((A, B) in certified for A in above[a] for B in above[b]):
            continue
        if lp.cones_relint_intersect([coords[i] for i in sorted(a)],
                                     [coords[i] for i in sorted(b)]):
            report.add("overlap", {"cones": [sorted(a), sorted(b)]})
    return report


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@dataclass
class FanProperties:
    irrational: bool
    complete: bool
    gamma_complete: bool
    polytopal: bool

    def to_json(self):
        return {"irrational": self.irrational, "complete": self.complete,
                "gamma_complete": self.gamma_complete,
                "polytopal": self.polytopal}


def _complete_ridges(fan: QuantumFan) -> dict | None:
    """The ridge pairing (_ridges) of the maximal cones when they form a
    pseudomanifold of cones of dimension d, else None."""
    maxc = fan.maximal_cones()
    ridges = _ridges(maxc, _ridge_map(maxc))
    return ridges if ridges is not None and len(maxc[0]) == fan.dim else None


def _is_complete(fan: QuantumFan) -> bool:
    """Simplicial completeness (_complete_ridges)."""
    return _complete_ridges(fan) is not None


def _is_gamma_complete(fan: QuantumFan) -> bool:
    ray_lattice = QLattice(fan.dim, fan.rays)
    for g in fan.gamma.generators:
        if gamma_contains(ray_lattice, g) is None:
            return False
    for v in fan.rays:
        if gamma_contains(fan.gamma, v) is None:
            return False
    return True


def _is_polytopal(fan: QuantumFan, w: Witness, ridges) -> bool:
    """Is there a strictly convex piecewise-linear support function on the
    witness values ("polytopal at witness")?

    It takes values w_i at the rays and is linear l_A on each maximal cone
    A.  A fan that _certified_walls does not certify has none: l_A(v_j) >
    w_j for every ray j outside A makes min_A l_A = l_A on cone(A), so
    cone(A) & cone(B) = cone(A & B), which the certificate would certify.
    On a certified fan, strict convexity across every wall is global
    (Cox-Little-Schenck, Toric Varieties, section 6.1): at the wall (A, j,
    x, D), D l_A(v_j) = sum_a x[a] w_a > D w_j, and the other cone's
    inequality there is this one times -1/x[i] > 0.  By Gordan's theorem
    of the alternative this system C w > 0 has a solution iff {y >= 0 :
    C^T y = 0, sum y = 1} is empty, one exact LP with a row per ray and a
    column per wall; it is homogeneous in w, so no margin enters.  The
    rays are the fan's witness_values, taken only for a combinatorially
    complete fan: ridges is _complete_ridges(fan)."""
    if ridges is None:
        return False
    coords = _witness_coords(fan, w)
    walls = _certified_walls(coords, {A: fan.value_chart(A, w)
                                      for A in fan.maximal_cones()}, ridges)
    if walls is None:
        return False
    columns = [[-D if k == j else x.get(k, 0) for k in range(1, fan.nrays + 1)]
               for _, j, x, D in walls]
    A_eq = [list(row) for row in zip(*columns)] + [[1] * len(columns)]
    return not lp.feasible(A_eq, [0] * fan.nrays + [1])


def fan_properties(fan: QuantumFan, w: Witness) -> FanProperties:
    ridges = _complete_ridges(fan)
    return FanProperties(
        irrational=gamma_rank(fan.gamma) > fan.dim,
        complete=ridges is not None,
        gamma_complete=_is_gamma_complete(fan),
        polytopal=_is_polytopal(fan, w, ridges),
    )


# ---------------------------------------------------------------------------
# combinatorial types
# ---------------------------------------------------------------------------

class CombType:
    """Number of rays plus the poset of cone index subsets."""

    def __init__(self, nrays: int, poset):
        self.nrays = nrays
        self.poset = _normalize_cones(poset)

    @staticmethod
    def of_fan(fan: QuantumFan) -> "CombType":
        return CombType(fan.nrays, fan.cones)

    def __eq__(self, other):
        return (isinstance(other, CombType) and self.nrays == other.nrays
                and self.poset == other.poset)

    def __repr__(self):
        cs = sorted((tuple(sorted(c)) for c in self.poset),
                    key=lambda t: (len(t), t))
        return f"CombType(p={self.nrays}, poset={cs})"

    def to_json(self):
        return {"p": self.nrays,
                "poset": sorted((sorted(c) for c in self.poset),
                                key=lambda t: (len(t), t))}

    def apply_permutation(self, perm) -> "CombType":
        return CombType(self.nrays,
                        [frozenset(perm[i] for i in c) for c in self.poset])

    def is_pseudomanifold(self) -> bool:
        """Combinatorial necessary condition for being the type of a
        complete fan: the maximal elements form a pseudomanifold
        (_ridges)."""
        maxc = _maximal(self.poset)
        return _ridges(maxc, _ridge_map(maxc)) is not None


def comb_type(fan: QuantumFan) -> CombType:
    return CombType.of_fan(fan)


def comb_equivalent(D: CombType, E: CombType) -> dict | None:
    """A bijection s of {1..p} with s(D) = E, as a dict i -> s(i);
    the lexicographically least one when several exist."""
    if D.nrays != E.nrays:
        return None
    p = D.nrays
    if sorted(map(len, D.poset)) != sorted(map(len, E.poset)):
        return None

    def signature(ct: CombType):
        return {i: sorted(Counter(len(c) for c in ct.poset if i in c).items())
                for i in range(1, p + 1)}

    sigD, sigE = signature(D), signature(E)

    def compatible(assign, i):
        # every cone through i whose rays are all assigned maps into E
        return all(frozenset(assign[k] for k in c) in E.poset for c in D.poset
                   if i in c and all(k in assign for k in c))

    def backtrack(assign, used, i):
        if i > p:
            # compatible checked each cone at its last ray, and an
            # injective ray map sends the cones onto as many cones of E
            return dict(assign)
        for j in range(1, p + 1):
            if j in used or sigD[i] != sigE[j]:
                continue
            assign[i] = j
            if compatible(assign, i):
                used.add(j)
                res = backtrack(assign, used, i + 1)
                if res is not None:
                    return res
                used.discard(j)
            del assign[i]
        return None

    return backtrack({}, set(), 1)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def standardize_fan(fan: QuantumFan):
    """Standard form: the lexicographically first linearly independent
    subset of the rays is mapped to the canonical basis of the span,
    completed greedily by canonical vectors; returns (fan', L), all read
    off one in_basis of [rays | e_1..e_d | Gamma's generators]."""
    p, d = fan.nrays, fan.dim
    _, coords = in_basis([*fan.rays, *Matrix.identity(d).rows,
                          *fan.gamma.generators])
    return (QuantumFan(QLattice(d, coords[p + d:]), coords[:p], fan.cones),
            Matrix.from_columns(coords[p:p + d]))


def d_realizable(rays, D: CombType, w: Witness,
                 gamma: QLattice | None = None) -> bool:
    """Do the vectors realize the combinatorial type D as a valid fan
    (complete when D is the type of a complete fan)?

    By default the q-lattice is the one generated by the standard basis
    and the given vectors."""
    if len(rays) != D.nrays:
        return False
    rays = [_vec(v) for v in rays]
    if gamma is None:
        d = len(rays[0]) if rays else 0
        eye = Matrix.identity(d)
        gamma = QLattice(d, [eye.rows[i] for i in range(d)] + list(rays))
    fan = QuantumFan(gamma, rays, D.poset)
    return validate_fan(fan, w).valid and (not D.is_pseudomanifold()
                                           or _is_complete(fan))
