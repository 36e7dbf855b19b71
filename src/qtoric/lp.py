"""Exact feasibility (phase 1 of the simplex, Bland's rule).

Every geometric predicate here asks only whether a point exists:
relative-interior intersection of cones, convex-hull membership, cones
that meet in a common face, strictly convex support functions.  solve_lp
finds x >= 0 with A x = b or reports that there is none; no LP has an
objective.  Hulls are cones over their points lifted to height 1; hulls
that share interior points are decided on the Gale-dual cones
(gale_lvmb.check_lvmb).  The data are exact elements of K = Q(sqrt(D_1),
..., sqrt(D_k)), witness values or positive multiples of them: the fans'
LPs get rational rays as primitive int rows (QuantumFan.witness_values),
and Surds stay.  A tableau row is a positive multiple of the field
tableau's row, cleared of denominators once: ints (linalg._integer_row),
or with a Surd, int coefficients over the root subsets (scalars._Root).
Both take linalg.int_pivot, the division-free step p*row - f*prow over the
row's content.  Signs are exact and the ratio test is cross-multiplied,
so Bland's rule makes the field simplex's choices; x is formed in K last.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import _integer_row, int_pivot
from .scalars import Surd, _Root, _surd

Q = Fraction


def _cleared(row):
    """A row of values in K with a Surd times the lcm of their
    denominators, as _Roots."""
    s = lcm(*(v.den if type(v) is Surd else v.denominator for v in row))
    return [_Root({m: x * (s // v.den) for m, x in v.c.items()})
            if type(v) is Surd else
            _Root({0: v.numerator * (s // v.denominator)} if v else {})
            for v in row]


def _simplex_core(T, basis, ncols, step):
    """Minimize the objective in the last row of tableau T (Bland's rule),
    pivoting with step, int_pivot on ints and _Roots.  A row may be any
    positive multiple of the field tableau's row."""
    m = len(T) - 1
    while True:
        obj = T[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return "optimal"
        r = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if r is None:
                    r = i
                    continue
                # T[i][-1] / a against T[r][-1] / T[r][enter], both
                # denominators positive; Bland: ties to the smaller basis
                d = T[i][-1] * T[r][enter] - T[r][-1] * a
                if d < 0 or not d and basis[i] < basis[r]:
                    r = i
        if r is None:
            return "unbounded"
        step(T, r, enter)
        basis[r] = enter


def solve_lp(A, b):
    """An x >= 0 with A x = b (ints, Fractions or Surds), or None when
    there is none.

    Phase 1 only: minimize the sum of one artificial per row."""
    m = len(A)
    if not m:
        return []
    n = len(A[0])
    rows = [[*A[i], b[i]] for i in range(m)]
    rows = [[-v for v in row] if row[-1] < 0 else row for row in rows]
    # the artificials' cost row, reduced against their basis; clearing row
    # i by s_i scales its artificial by s_i, which keeps the reduced costs
    rows.append([-sum(col) for col in zip(*rows)])
    ints = [_integer_row(row) for row in rows]
    rational = None not in ints
    zero, one = (0, 1) if rational else (_Root(), _Root({0: 1}))
    T = [row[:-1] + [one if j == i else zero for j in range(m)] + row[-1:]
         for i, row in enumerate(ints if rational else map(_cleared, rows))]
    basis = [n + i for i in range(m)]
    _simplex_core(T, basis, n + m, int_pivot)
    if T[-1][-1]:
        return None
    x = [Q(0)] * n
    for i, j in enumerate(basis):
        if j < n and T[i][-1]:
            x[j] = Q(T[i][-1], T[i][j]) if rational else \
                _surd(T[i][-1], 1) / _surd(T[i][j], 1)
    return x


def feasible(A, b):
    """Is {x >= 0 : A x = b} nonempty?  Exact."""
    return solve_lp(A, b) is not None


def in_convex_hull(points):
    """Is the origin in the convex hull of the points (value vectors)?"""
    if not points:
        return False
    # (0, 1) in the cone over the lifted points (p, 1)
    A = _difference_rows([[*p, Q(1)] for p in points], [])
    return feasible(A, [Q(0)] * len(points[0]) + [Q(1)])


def _difference_rows(gen1, gen2):
    """The rows of  sum l_i u_i - sum m_j v_j  in the unknowns (l, m)."""
    return [[u[i] for u in gen1] + [-v[i] for v in gen2]
            for i in range(len(gen1[0]))]


def cones_relint_intersect(gen1, gen2):
    """Do the relative interiors of two cones intersect?

    gen*: lists of value vectors (cone generators, not necessarily
    independent); the relative interior of a cone is the set of its
    generators' combinations with all coefficients positive.  Solved as the
    feasibility of  sum l_i u_i = sum m_j v_j  with  l, m >= 1, which is
    scale-free, hence needs no margin."""
    if not gen1 or not gen2:
        return False
    # substitute l = 1 + y, m = 1 + z with y,z >= 0
    A = _difference_rows(gen1, gen2)
    return feasible(A, [-sum(row) for row in A])
