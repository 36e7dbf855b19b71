"""Small exact-arithmetic helpers used to build inputs and to check answers.

They are independent of qtoric: the oracle must not ask the program under
test what the right answer is.  Vectors and matrices are lists of Fractions.
"""

from __future__ import annotations

from fractions import Fraction as Q


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    M = [[Q(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        piv = M[r][c]
        M[r] = [x / piv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def kernel(rows):
    """A basis of {x : rows . x = 0}, one vector per free column."""
    ncols = len(rows[0])
    R, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Q(0)] * ncols
        x[f] = Q(1)
        for i, pc in enumerate(pivots):
            x[pc] = -R[i][f]
        basis.append(x)
    return basis


def mat_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Q(0)) for col in zip(*B)]
            for row in A]


def det(M) -> Q:
    M = [[Q(x) for x in r] for r in M]
    n = len(M)
    out = Q(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c] != 0), None)
        if p is None:
            return Q(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            out = -out
        out *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return out


def columns(vectors):
    """The matrix whose columns are the given vectors."""
    return [list(r) for r in zip(*vectors)]


def identity(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


class QuadNumber:
    """u + v*sqrt(D) with rational u, v and a fixed positive non-square D."""

    __slots__ = ("u", "v", "D")

    def __init__(self, u, v, D):
        self.u, self.v, self.D = Q(u), Q(v), D

    def __add__(self, o):
        return QuadNumber(self.u + o.u, self.v + o.v, self.D)

    def __mul__(self, o):
        return QuadNumber(self.u * o.u + self.D * self.v * o.v,
                          self.u * o.v + self.v * o.u, self.D)

    def __truediv__(self, o):
        norm = o.u * o.u - self.D * o.v * o.v
        conj = QuadNumber(o.u / norm, -o.v / norm, self.D)
        return self * conj

    def __eq__(self, o):
        return (self.u, self.v) == (o.u, o.v)

    def const(self, c):
        return QuadNumber(c, 0, self.D)

    def act(self, H):
        """a.H = (r + s a)/(p + q a) for H = [[p, r], [q, s]]."""
        (p, r), (q, s) = H
        return (self.const(r) + self.const(s) * self) / \
            (self.const(p) + self.const(q) * self)
