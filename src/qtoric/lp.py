"""Exact rational linear programming (two-phase simplex, Bland's rule).

Used for geometric feasibility predicates: relative-interior disjointness
of cones, convex-hull membership, strictly convex support functions.  All
data are Fractions, so feasibility and optima are exact.  For a parametric
input, though, the data are its rounded Witness.approx values.
interiors_intersect keeps a strictness margin for that case, the last
guarded decision on rounded data: near the boundary it reports
Indeterminate instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Indeterminate

Q = Fraction

MARGIN = Q(1, 10 ** 9)


class LPResult:
    __slots__ = ("status", "objective", "x")

    def __init__(self, status, objective=None, x=None):
        self.status = status  # 'optimal' | 'infeasible' | 'unbounded'
        self.objective = objective
        self.x = x


def _pivot(T, basis, r, c):
    """Pivot on T[r][c]; only the columns where row r is nonzero change."""
    prow = T[r]
    piv = prow[c]
    nz = [j for j, v in enumerate(prow) if v]
    for j in nz:
        prow[j] = prow[j] / piv
    for i, row in enumerate(T):
        f = row[c]
        if i != r and f:
            for j in nz:
                row[j] = row[j] - f * prow[j]
    basis[r] = c


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
        _pivot(T, basis, best[2], enter)


def solve_lp(A, b, c):
    """min c.x subject to A x = b, x >= 0 (all Fractions).

    Returns LPResult with exact optimum and a solution vector."""
    m = len(A)
    n = len(A[0]) if m else len(c)
    A = [list(map(Q, row)) for row in A]
    b = list(map(Q, b))
    c = list(map(Q, c))
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # phase 1: artificial variables
    T = []
    for i in range(m):
        T.append(A[i] + [Q(1) if j == i else Q(0) for j in range(m)] + [b[i]])
    obj = [Q(0)] * n + [Q(1)] * m + [Q(0)]
    T.append(obj)
    basis = [n + i for i in range(m)]
    for i in range(m):
        T[-1] = [a - bb for a, bb in zip(T[-1], T[i])]
    status = _simplex_core(T, basis, n + m)
    if status != "optimal" or T[-1][-1] != 0:
        return LPResult("infeasible")
    # drive remaining artificials out of the basis when possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j] != 0), None)
            if enter is not None:
                _pivot(T, basis, i, enter)
    rows = [i for i in range(m) if basis[i] < n or T[i][-1] == 0]
    # phase 2
    T2 = [[T[i][j] for j in range(n)] + [T[i][-1]] for i in range(m)]
    obj2 = list(c) + [Q(0)]
    for i in range(m):
        if basis[i] < n and obj2[basis[i]] != 0:
            f = obj2[basis[i]]
            obj2 = [a - f * v for a, v in zip(obj2, T2[i])]
    T2.append(obj2)
    basis2 = list(basis)
    status = _simplex_core(T2, basis2, n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Q(0)] * n
    for i in range(m):
        if basis2[i] < n:
            x[basis2[i]] = T2[i][-1]
    val = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult("optimal", val, x)


def feasible(A, b):
    """Is {x >= 0 : A x = b} nonempty?  Exact."""
    n = len(A[0]) if A else 0
    res = solve_lp(A, b, [Q(0)] * n)
    return res.status == "optimal"


def max_min_slack(A_eq, b_eq, slack_cols):
    """max t s.t. A_eq x = b_eq, x >= 0, x[j] >= t for j in slack_cols.

    Encoded by substituting x[j] = y[j] + t with y >= 0, t >= 0; returns the
    exact optimal t (Fraction) or None when infeasible even at t = 0.
    """
    m = len(A_eq)
    n = len(A_eq[0]) if m else 0
    # variables: y_0..y_{n-1}, t
    A = [[*row, sum(row[j] for j in slack_cols)] for row in A_eq]
    c = [Q(0)] * n + [Q(-1)]
    res = solve_lp(A, b_eq, c)
    if res.status == "infeasible":
        return None
    if res.status == "unbounded":
        return Q(10 ** 12)  # any certified positive value suffices
    return -res.objective


def in_convex_hull(points):
    """Is the origin in the convex hull of the points (Fraction vectors)?"""
    if not points:
        return False
    dim = len(points[0])
    n = len(points)
    A = [[points[j][i] for j in range(n)] for i in range(dim)]
    A.append([Q(1)] * n)
    return feasible(A, [Q(0)] * dim + [Q(1)])


def interiors_intersect(points1, points2, exact=True):
    """Do the convex hulls of two full-dimensional point sets have interior
    points in common?  Decided as a strict feasibility: a common point with
    all barycentric coordinates positive on both sides.  Unless the data
    are exact, a positive optimum within MARGIN is Indeterminate."""
    if not points1 or not points2:
        return False
    dim = len(points1[0])
    n1, n2 = len(points1), len(points2)
    # lambda (n1), mu (n2):  sum l_i p_i - sum m_j q_j = 0, suml = 1, summ = 1
    A = []
    for i in range(dim):
        A.append([points1[j][i] for j in range(n1)] +
                 [-points2[j][i] for j in range(n2)])
    A.append([Q(1)] * n1 + [Q(0)] * n2)
    A.append([Q(0)] * n1 + [Q(1)] * n2)
    b = [Q(0)] * dim + [Q(1), Q(1)]
    t = max_min_slack(A, b, list(range(n1 + n2)))
    if t is None or t == 0:
        return False
    if exact or t > MARGIN:
        return True
    raise Indeterminate("feasibility within strictness margin at witness")


def cones_relint_intersect(gen1, gen2):
    """Do the relative interiors of two simplicial cones intersect?

    gen*: lists of Fraction vectors (cone generators).  Solved as the
    feasibility of  sum l_i u_i = sum m_j v_j  with  l, m >= 1, which is
    scale-free, hence needs no margin."""
    if not gen1 or not gen2:
        return False
    dim = len(gen1[0])
    n1, n2 = len(gen1), len(gen2)
    # substitute l = 1 + y, m = 1 + z with y,z >= 0
    A = []
    rhs = []
    for i in range(dim):
        row = [gen1[j][i] for j in range(n1)] + \
              [-gen2[j][i] for j in range(n2)]
        A.append(row)
        rhs.append(-sum(row))
    return feasible(A, rhs)
