"""Exact feasibility (phase 1 of the simplex, Bland's rule).

Every geometric predicate here asks only whether a point exists:
relative-interior intersection of cones, convex-hull membership, strictly
convex support functions.  solve_lp finds x >= 0 with A x = b or reports
that there is none; no LP has an objective.  Interiors of full-dimensional
hulls are decided as relative interiors of the cones over the points
lifted to height 1.  The data are witness values, exact elements of
K = Q(sqrt(D_1), ..., sqrt(D_k)): Fractions, and Surds when quadratic
roots occur.  The simplex only adds, multiplies, divides and compares
them, so over this ordered field every answer is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import pivot

Q = Fraction


def _simplex_core(T, basis, ncols):
    """Minimize the objective in the last row of tableau T (Bland's rule)."""
    m = len(T) - 1
    while True:
        obj = T[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return "optimal"
        ratios = []
        for i in range(m):
            if T[i][enter] > 0:
                ratios.append((T[i][-1] / T[i][enter], basis[i], i))
        if not ratios:
            return "unbounded"
        # Bland: among minimal ratio rows pick the smallest basis index
        best = min(ratios, key=lambda t: (t[0], t[1]))
        pivot(T, best[2], enter)
        basis[best[2]] = enter


def solve_lp(A, b):
    """An x >= 0 with A x = b (ints, Fractions or Surds), or None when
    there is none.

    Phase 1 only: minimize the sum of one artificial per row."""
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
    # the artificials' cost row, reduced against the artificial basis
    T.append([-sum(col) for col in zip(*A)] + [Q(0)] * m + [-sum(b)])
    basis = [n + i for i in range(m)]
    _simplex_core(T, basis, n + m)
    if T[-1][-1] != 0:
        return None
    x = [Q(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
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


def interiors_intersect(points1, points2):
    """Do the convex hulls of two full-dimensional point sets have interior
    points in common?  That is, are there λ, μ > 0 with Σλ = Σμ = 1 and
    Σ λᵢpᵢ = Σ μⱼqⱼ?  Scaled, these are points of the relative interiors of
    the cones over the lifted points (p, 1) and (q, 1)."""
    if not points1 or not points2:
        return False
    return cones_relint_intersect([[*p, Q(1)] for p in points1],
                                  [[*q, Q(1)] for q in points2])


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
